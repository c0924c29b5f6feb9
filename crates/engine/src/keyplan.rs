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
//! Kernels walk their rows in blocks of [`BLOCK`]: keys are packed a
//! block at a time into a [`KeyBlock`] (one variant match per column per
//! block, typed loops inside), and the budget is settled once per block.

use crate::column::{Column, ColumnData};
use crate::crel::CRel;
use crate::dict::NULL_CODE;
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

/// One key column: the build side's value range and its place in the
/// packed key.
struct KeyDim {
    min: i64,
    /// `max − min + 1`.
    width: u64,
    /// Product of the earlier columns' widths; 0 once that overflows (the
    /// plan then has no packed range and the stride is never used).
    stride: u64,
}

/// See the module docs.
pub(crate) struct KeyPlan {
    dims: Vec<KeyDim>,
    /// Number of packed keys, `Π widthᵢ`; `None` when it overflows.
    range: Option<u64>,
}

/// Per-call scratch for one block of packed keys.
pub(crate) struct KeyBlock {
    keys: Vec<u64>,
    /// Offsets of the second and later key columns (multi-column keys
    /// only).
    tmp: Vec<u64>,
}

/// A fixed-size set of packed keys or column offsets: the reducer side
/// of a semijoin, the keys a distinct projection has seen, the values of
/// one key column of a join's build side.
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

    /// True if `i` is in the set ([`MISS`] never is).
    #[inline]
    pub(crate) fn contains(&self, i: u64) -> bool {
        i != MISS && (self.words[(i / 64) as usize] >> (i % 64)) & 1 == 1
    }

    /// Adds `i`; true if it was not in the set.
    #[inline]
    pub(crate) fn insert(&mut self, i: u64) -> bool {
        let (word, bit) = (&mut self.words[(i / 64) as usize], 1u64 << (i % 64));
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    }
}

/// Smallest and largest value of a non-empty slice.
fn min_max<T: Copy + Ord + Into<i64>>(a: &[T]) -> (i64, i64) {
    let (lo, hi) = a[1..]
        .iter()
        .fold((a[0], a[0]), |(lo, hi), &x| (lo.min(x), hi.max(x)));
    (lo.into(), hi.into())
}

/// `out[j] = a[j] − min`, or [`MISS`] where that falls outside
/// `0..width`. The subtraction wraps in `u64`, which is exact here: a
/// value below `min` wraps to at least `2⁶⁴ − (min − i64::MIN)`, and that
/// is `≥ width` because `min + width − 1` is an `i64`.
fn offsets_of<T: Copy + Into<i64>>(a: &[T], dim: &KeyDim, out: &mut [u64]) {
    for (o, &x) in out.iter_mut().zip(a) {
        let d = (x.into() as u64).wrapping_sub(dim.min as u64);
        *o = if d < dim.width { d } else { MISS };
    }
}

impl KeyDim {
    /// Offsets of rows `lo..lo + out.len()` of `col` (see [`offsets_of`]).
    fn offsets(&self, col: &Column, lo: usize, out: &mut [u64]) {
        let hi = lo + out.len();
        match col.data() {
            ColumnData::Int(a) => offsets_of(&a[lo..hi], self, out),
            ColumnData::Date(a) => offsets_of(&a[lo..hi], self, out),
            ColumnData::Str(a) => offsets_of(&a[lo..hi], self, out),
            ColumnData::Float(_) | ColumnData::Mixed(_) => {
                unreachable!("key plans are resolved over Int, Date and Str columns only")
            }
        }
    }
}

impl KeyPlan {
    /// The plan for joining `build`'s key columns `build_idx` with
    /// `probe`'s `probe_idx` (paired by position), or `None` when the key
    /// is not plannable: no key column, no build row, a column that is
    /// not null-free `Int`/`Date`/`Str` on both sides, or a build-side
    /// range of `2⁶⁴` values.
    pub(crate) fn resolve(
        build: &CRel,
        build_idx: &[usize],
        probe: &CRel,
        probe_idx: &[usize],
    ) -> Option<KeyPlan> {
        if build_idx.is_empty() || build.is_empty() {
            return None;
        }
        let mut dims = Vec::with_capacity(build_idx.len());
        let mut range = Some(1u64);
        for (&bc, &pc) in build_idx.iter().zip(probe_idx) {
            let (b, p) = (build.column(bc), probe.column(pc));
            let (min, max) = match (b.data(), p.data()) {
                (ColumnData::Int(a), ColumnData::Int(_))
                    if !b.nulls().any() && !p.nulls().any() =>
                {
                    min_max(a)
                }
                (ColumnData::Date(a), ColumnData::Date(_))
                    if !b.nulls().any() && !p.nulls().any() =>
                {
                    min_max(a)
                }
                // String NULLs are the code `u32::MAX`: one on the build
                // side shows up as the maximum, one on the probe side lies
                // outside every null-free build range and is a miss, which
                // is what `NULL = NULL` gives against a null-free side.
                (ColumnData::Str(a), ColumnData::Str(_)) => {
                    let (min, max) = min_max(a);
                    if max == i64::from(NULL_CODE) {
                        return None;
                    }
                    (min, max)
                }
                _ => return None,
            };
            let width = (max as u64).wrapping_sub(min as u64).checked_add(1)?;
            dims.push(KeyDim {
                min,
                width,
                stride: range.unwrap_or(0),
            });
            range = range.and_then(|r| r.checked_mul(width));
        }
        Some(KeyPlan { dims, range })
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
        self.dims.iter().try_fold(0u64, |acc, d| {
            acc.checked_add(Bitmap::byte_estimate(d.width)?)
        })
    }

    /// Scratch for walking relations of up to `rows` rows.
    pub(crate) fn block(&self, rows: usize) -> KeyBlock {
        let n = rows.min(BLOCK);
        KeyBlock {
            keys: vec![0; n],
            tmp: if self.dims.len() > 1 {
                vec![0; n]
            } else {
                Vec::new()
            },
        }
    }

    /// Packed keys of the block `rows` of `rel`'s key columns `idx`;
    /// [`MISS`] for a row with a value outside the build side's range.
    pub(crate) fn pack<'b>(
        &self,
        rel: &CRel,
        idx: &[usize],
        rows: Range<usize>,
        blk: &'b mut KeyBlock,
    ) -> &'b [u64] {
        let (lo, len) = (rows.start, rows.len());
        let keys = &mut blk.keys[..len];
        // The first stride is 1: its offsets are the keys so far.
        self.dims[0].offsets(rel.column(idx[0]), lo, keys);
        for (dim, &c) in self.dims.iter().zip(idx).skip(1) {
            let tmp = &mut blk.tmp[..len];
            dim.offsets(rel.column(c), lo, tmp);
            for (k, &t) in keys.iter_mut().zip(tmp.iter()) {
                *k = if *k == MISS || t == MISS {
                    MISS
                } else {
                    *k + t * dim.stride
                };
            }
        }
        keys
    }

    /// The set of packed keys of `rel`'s rows (the plan's build side).
    pub(crate) fn packed_set(&self, rel: &CRel, idx: &[usize], range: usize) -> Bitmap {
        let mut blk = self.block(rel.len());
        let mut set = Bitmap::new(range as u64);
        for rows in blocks(0..rel.len()) {
            for &k in self.pack(rel, idx, rows, &mut blk) {
                set.insert(k);
            }
        }
        set
    }

    /// One exact bitmap per key column over the build side `rel`: bit
    /// `v − minᵢ` of bitmap `i` is set iff some row holds `v` in column
    /// `i`.
    pub(crate) fn range_bitmaps(
        &self,
        rel: &CRel,
        idx: &[usize],
        blk: &mut KeyBlock,
    ) -> Vec<Bitmap> {
        let mut maps: Vec<Bitmap> = self.dims.iter().map(|d| Bitmap::new(d.width)).collect();
        for rows in blocks(0..rel.len()) {
            let offs = &mut blk.keys[..rows.len()];
            for ((dim, &c), map) in self.dims.iter().zip(idx).zip(&mut maps) {
                dim.offsets(rel.column(c), rows.start, offs);
                for &d in offs.iter() {
                    map.insert(d);
                }
            }
        }
        maps
    }

    /// Replaces `sel` with the rows of the block `rows` of `probe` whose
    /// every key value occurs in the build side's column (ascending):
    /// the only rows that can have a match.
    pub(crate) fn survivors(
        &self,
        maps: &[Bitmap],
        probe: &CRel,
        idx: &[usize],
        rows: Range<usize>,
        blk: &mut KeyBlock,
        sel: &mut Vec<u32>,
    ) {
        let (lo, len) = (rows.start, rows.len());
        let offs = &mut blk.keys[..len];
        sel.clear();
        for (i, ((dim, &c), map)) in self.dims.iter().zip(idx).zip(maps).enumerate() {
            dim.offsets(probe.column(c), lo, offs);
            let present = |j: usize| map.contains(offs[j]);
            if i == 0 {
                sel.extend((0..len).filter(|&j| present(j)).map(|j| (lo + j) as u32));
            } else {
                sel.retain(|&r| present(r as usize - lo));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnType;
    use crate::value::Value;
    use std::sync::Arc;

    fn rel(cols: Vec<Column>) -> CRel {
        let n = cols[0].len();
        let names = (0..cols.len()).map(|i| format!("c{i}")).collect();
        CRel::new(names, cols.into_iter().map(Arc::new).collect(), n)
    }

    fn ints(v: &[i64]) -> Column {
        Column::from_ints(v.to_vec())
    }

    #[test]
    fn packing_is_exact_and_out_of_range_is_a_miss() {
        let build = rel(vec![ints(&[-3, 4, 0]), ints(&[10, 10, 12])]);
        let probe = rel(vec![ints(&[4, -3, 5, -4, 0]), ints(&[10, 12, 10, 10, 13])]);
        let plan = KeyPlan::resolve(&build, &[0, 1], &probe, &[0, 1]).unwrap();
        assert_eq!(plan.range, Some(8 * 3));
        let mut blk = plan.block(5);
        assert_eq!(
            plan.pack(&build, &[0, 1], 0..3, &mut blk),
            [0, 7, 3 + 2 * 8]
        );
        assert_eq!(
            plan.pack(&probe, &[0, 1], 0..5, &mut blk),
            [7, 2 * 8, MISS, MISS, MISS]
        );
        // A later block of the same relation.
        assert_eq!(plan.pack(&probe, &[0, 1], 3..5, &mut blk), [MISS, MISS]);
    }

    #[test]
    fn the_whole_i64_range_has_no_plan_and_nearly_all_of_it_no_packed_range() {
        let all = rel(vec![ints(&[i64::MIN, i64::MAX])]);
        assert!(KeyPlan::resolve(&all, &[0], &all, &[0]).is_none());
        let most = rel(vec![ints(&[i64::MIN + 1, i64::MAX]), ints(&[0, 1])]);
        let plan = KeyPlan::resolve(&most, &[0, 1], &most, &[0, 1]).unwrap();
        assert_eq!(plan.range, None);
        assert!(plan.range_bitmap_bytes().unwrap() > 1 << 60);
        // Offsets stay exact at the extremes: below the minimum is a miss.
        let probe = rel(vec![ints(&[i64::MIN, i64::MAX, i64::MIN + 1])]);
        let mut out = [0u64; 3];
        plan.dims[0].offsets(probe.column(0), 0, &mut out);
        assert_eq!(out, [MISS, u64::MAX - 1, 0]);
    }

    #[test]
    fn nulls_floats_and_differing_variants_have_no_plan() {
        let mut nullable = Column::new(ColumnType::Int);
        nullable.push_value(&Value::Int(1));
        nullable.push_null();
        let (clean, nullable) = (rel(vec![ints(&[1, 2])]), rel(vec![nullable]));
        assert!(KeyPlan::resolve(&clean, &[0], &nullable, &[0]).is_none());
        assert!(KeyPlan::resolve(&nullable, &[0], &clean, &[0]).is_none());

        let mut floats = Column::new(ColumnType::Float);
        assert!(floats.push_float(1.0) && floats.push_float(2.0));
        let floats = rel(vec![floats]);
        assert!(KeyPlan::resolve(&floats, &[0], &floats, &[0]).is_none());
        assert!(KeyPlan::resolve(&clean, &[0], &floats, &[0]).is_none());

        let mut dates = Column::new(ColumnType::Date);
        assert!(dates.push_date(1) && dates.push_date(2));
        assert!(KeyPlan::resolve(&clean, &[0], &rel(vec![dates]), &[0]).is_none());

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
        assert!(KeyPlan::resolve(&holed, &[0], &full, &[0]).is_none());
        let plan = KeyPlan::resolve(&full, &[0], &holed, &[0]).unwrap();
        let mut blk = plan.block(2);
        assert_eq!(plan.pack(&holed, &[0], 0..2, &mut blk)[1], MISS);

        assert!(KeyPlan::resolve(&clean, &[], &clean, &[]).is_none());
        let empty = rel(vec![ints(&[])]);
        assert!(KeyPlan::resolve(&empty, &[0], &clean, &[0]).is_none());
    }
}
