//! Columnar physical operators over [`CRel`]s — the column-at-a-time
//! counterparts of [`crate::ops`].
//!
//! The kernels answer like the row kernels — build on the smaller side,
//! the same output bag and column order, the same [`Budget`] totals — but
//! never touch a boxed `Value` on the hot path, and they address their
//! keys by what the key columns show (a [`KeyPlan`], resolved once per
//! call; DESIGN.md §3.8 "Key plans"):
//!
//! - a key of null-free `Int`/`Date`/`Str` columns packs into one integer
//!   relative to the build side's minima. When that range fits in the
//!   bytes the kernel has reserved anyway, the join runs on a
//!   [`DirectTable`] indexed by packed key — no hashes, no verification —
//!   and semijoin and distinct projection on a bitmap over it;
//! - when it does not fit, the join puts one exact bitmap per key column
//!   in front of the hashed table and hashes only the probe rows that
//!   pass all of them;
//! - every other key takes the hashed path: key hashes from one
//!   vectorized pass per key column
//!   ([`crate::column::Column::write_hashes`]), the [`ChainTable`]
//!   chained-index hash table, candidates verified by typed cell
//!   comparisons ([`crate::column::Column::eq_at`], strings by `u32`
//!   dictionary code).
//!
//! Output is materialized by collecting matching `(build, probe)` row
//! index pairs and running one gather pass per output column. Joins charge
//! the budget once per block of probe rows ([`BLOCK`]), not once per pair.
//!
//! The direct, filtered and hashed kernels emit the same pair sequence
//! (probe-major, ascending build row), so the output row order does not
//! depend on which table a key gets.

use crate::chain::{ChainTable, DirectTable, CHAIN_END};
use crate::column::{finish_hash, Column};
use crate::crel::CRel;
use crate::dict::{self, DictReader};
use crate::error::{Budget, EvalError};
use crate::keyplan::{blocks, Bitmap, KeyPlan, BLOCK, MISS};
use crate::ops;
use crate::value::Row;
use crate::vrel::VRelation;
use std::sync::Arc;

/// Matching `(build, probe)` row index lists produced by a join kernel.
type PairLists = (Vec<u32>, Vec<u32>);

/// Bytes one matching `(build, probe)` index pair occupies in the
/// kernels' pair lists (two `u32`s) — the columnar counterpart of the row
/// kernels' per-output-row charge.
pub(crate) const PAIR_BYTES: u64 = 8;

/// Row `i` of `rel` as a boxed row, streamed straight out of the columns.
fn materialize_row(rel: &CRel, i: usize, reader: &DictReader) -> Row {
    rel.columns()
        .iter()
        .map(|c| c.value_with(i, reader))
        .collect()
}

/// Resident payload bytes of a columnar relation (sum of its columns'
/// typed vectors), charged when a kernel materializes its output.
pub(crate) fn crel_payload_bytes(r: &CRel) -> u64 {
    r.columns().iter().map(|c| c.payload_bytes() as u64).sum()
}

/// Column positions of the shared variables in `a` and `b`, plus the
/// positions in `b` of its non-shared columns.
fn join_layout(a: &CRel, b: &CRel) -> (Vec<usize>, Vec<usize>, Vec<usize>) {
    let mut a_shared = Vec::new();
    let mut b_shared = Vec::new();
    for (i, c) in a.cols().iter().enumerate() {
        if let Some(j) = b.col_index(c) {
            a_shared.push(i);
            b_shared.push(j);
        }
    }
    let b_rest: Vec<usize> = (0..b.cols().len())
        .filter(|j| !b_shared.contains(j))
        .collect();
    (a_shared, b_shared, b_rest)
}

/// 64-bit key hash of every row over the key columns `idx`: one
/// [`Column::write_hashes`] pass per column, then the avalanche
/// finalizer. An empty key hashes every row to the same constant (cross
/// products), matching [`crate::hash::hash_key`]'s convention.
pub fn key_hashes(rel: &CRel, idx: &[usize], reader: &DictReader) -> Vec<u64> {
    let mut acc = vec![0u64; rel.len()];
    for &c in idx {
        rel.column(c).write_hashes(&mut acc, reader);
    }
    for h in &mut acc {
        *h = finish_hash(*h);
    }
    acc
}

/// True if row `i` of `a` and row `j` of `b` agree on the paired key
/// columns (`Value` equality semantics).
#[inline]
pub(crate) fn rows_key_eq(
    a: &CRel,
    i: usize,
    b: &CRel,
    j: usize,
    a_idx: &[usize],
    b_idx: &[usize],
    reader: &DictReader,
) -> bool {
    a_idx
        .iter()
        .zip(b_idx)
        .all(|(&x, &y)| a.column(x).eq_at(i, b.column(y), j, reader))
}

/// Permutes the columns of `r` to `desired` (must be a permutation): the
/// columns are moved out of `r` and back in, no cell is copied.
fn reorder(r: CRel, desired: &[String]) -> CRel {
    let (cols, columns, len) = r.into_parts();
    let mut columns: Vec<Option<Arc<Column>>> = columns.into_iter().map(Some).collect();
    let out_columns = desired
        .iter()
        .map(|c| {
            let i = cols
                .iter()
                .position(|x| x == c)
                .expect("reorder: missing column");
            columns[i].take().expect("reorder: duplicate column")
        })
        .collect();
    CRel::new(desired.to_vec(), out_columns, len)
}

/// Natural join of `a` and `b` on their shared variables — the columnar
/// [`crate::ops::natural_join`]. Same budget charges, same output bag,
/// same deterministic ordering contract.
pub fn natural_join(a: &CRel, b: &CRel, budget: &mut Budget) -> Result<CRel, EvalError> {
    crate::fail_point!("cops::join");
    budget.join_stats().add_hash_build();
    let (build, probe, swapped) = if a.len() <= b.len() {
        (a, b, false)
    } else {
        (b, a, true)
    };
    let (build_shared, probe_shared, probe_rest) = join_layout(build, probe);

    let mut out_cols: Vec<String> = build.cols().to_vec();
    out_cols.extend(probe_rest.iter().map(|&j| probe.cols()[j].clone()));

    let out = if ops::join_build_reservation(budget, &build_shared, build.len(), probe.len())? {
        // Grace spill path: the machinery shared with `ops`, fed rows
        // streamed straight out of the columns (no row copy of
        // either input is ever materialized).
        let reader = dict::reader();
        let build_hashes = key_hashes(build, &build_shared, &reader);
        let probe_hashes = key_hashes(probe, &probe_shared, &reader);
        let rows = ops::grace_join_spill(
            build.len(),
            |i| materialize_row(build, i, &reader),
            |i| build_hashes[i],
            probe.len(),
            |i| materialize_row(probe, i, &reader),
            |i| probe_hashes[i],
            &build_shared,
            &probe_shared,
            &probe_rest,
            build.cols().len(),
            budget,
        )?;
        drop(reader);
        // Re-encoding interns into the dictionary, so the reader must be
        // released first.
        CRel::from_vrel(&VRelation::from_rows(out_cols, rows))
    } else {
        let result = join_pairs(build, probe, &build_shared, &probe_shared, budget);
        // The build table (and hash scratch) is gone either way.
        budget.uncharge_bytes(ops::join_build_bytes(build.len(), probe.len()));
        let (build_idx, probe_idx) = result?;

        // Output construction: one gather pass per column.
        let mut columns: Vec<Arc<Column>> = Vec::with_capacity(out_cols.len());
        for c in build.columns() {
            columns.push(Arc::new(c.gather(&build_idx)));
        }
        for &j in &probe_rest {
            columns.push(Arc::new(probe.column(j).gather(&probe_idx)));
        }
        let n = build_idx.len();
        let out = CRel::new(out_cols, columns, n);
        budget.charge_bytes(crel_payload_bytes(&out))?;
        out
    };

    if swapped {
        let desired: Vec<String> = {
            let mut cols: Vec<String> = a.cols().to_vec();
            cols.extend(b.cols().iter().filter(|c| !a.cols().contains(c)).cloned());
            cols
        };
        return Ok(reorder(out, &desired));
    }
    Ok(out)
}

/// The pair lists a join kernel emits, settled against the budget by
/// the block: a kernel calls [`PairSink::end_block`] after every
/// [`BLOCK`] probe rows, and [`PairSink::push`] settles by itself once
/// [`BLOCK`] pairs are outstanding. The totals equal one `charge(1)` +
/// `charge_bytes(PAIR_BYTES)` per pair; a limit trips at most one block
/// of pairs later than it would pair by pair, and a probe that emits
/// nothing still polls the deadline and the cancellation token.
#[derive(Default)]
struct PairSink {
    build_idx: Vec<u32>,
    probe_idx: Vec<u32>,
    /// Pairs already charged.
    settled: usize,
}

impl PairSink {
    #[inline]
    fn push(&mut self, bi: u32, pi: u32, budget: &mut Budget) -> Result<(), EvalError> {
        self.build_idx.push(bi);
        self.probe_idx.push(pi);
        if self.build_idx.len() - self.settled >= BLOCK {
            self.settle(budget)?;
        }
        Ok(())
    }

    fn settle(&mut self, budget: &mut Budget) -> Result<(), EvalError> {
        let n = (self.build_idx.len() - self.settled) as u64;
        self.settled = self.build_idx.len();
        budget.charge(n)?;
        budget.charge_bytes(n * PAIR_BYTES)
    }

    fn end_block(&mut self, budget: &mut Budget) -> Result<(), EvalError> {
        self.settle(budget)?;
        budget.check_time()
    }

    fn finish(self) -> PairLists {
        debug_assert_eq!(self.settled, self.build_idx.len(), "unsettled pairs");
        (self.build_idx, self.probe_idx)
    }
}

/// Matching `(build, probe)` row pairs of an in-memory join, from the
/// kernel the key calls for (DESIGN.md §3.8, "Key plans"): the direct
/// table when the packed key range fits in the reservation, else the
/// hashed table (behind range bitmaps when the key has a plan). Every
/// kernel emits the same sequence: probe-major, ascending build row.
fn join_pairs(
    build: &CRel,
    probe: &CRel,
    build_shared: &[usize],
    probe_shared: &[usize],
    budget: &mut Budget,
) -> Result<PairLists, EvalError> {
    let reserved = ops::join_build_bytes(build.len(), probe.len());
    let plan = KeyPlan::resolve(build, build_shared, probe, probe_shared);
    if let Some(plan) = &plan {
        let fits = |range| DirectTable::byte_estimate(build.len(), range);
        if let Some(range) = plan.range_fitting(reserved, fits) {
            return join_pairs_direct(
                plan,
                range,
                build,
                probe,
                build_shared,
                probe_shared,
                budget,
            );
        }
    }
    // The bitmaps take the place of the probe side's hash array, which
    // the filtered probe never materializes.
    let held = ops::join_build_bytes(build.len(), 0);
    let plan = plan.filter(|p| {
        p.range_bitmap_bytes()
            .and_then(|b| b.checked_add(held))
            .is_some_and(|b| b <= reserved)
    });
    join_pairs_hashed(build, probe, build_shared, probe_shared, plan, budget)
}

/// Direct-table kernel: one pass over the build side fills a table
/// indexed by packed key, one pass over the probe side walks it. No
/// hashes, no candidate verification.
fn join_pairs_direct(
    plan: &KeyPlan,
    range: usize,
    build: &CRel,
    probe: &CRel,
    build_shared: &[usize],
    probe_shared: &[usize],
    budget: &mut Budget,
) -> Result<PairLists, EvalError> {
    let mut blk = plan.block(build.len().max(probe.len()));
    let mut table = DirectTable::new(build.len(), range);
    // Last row first, so every chain ascends.
    for rows in blocks(0..build.len()).rev() {
        let lo = rows.start;
        let keys = plan.pack(build, build_shared, rows, &mut blk);
        for (j, &k) in keys.iter().enumerate().rev() {
            table.push_front(k, (lo + j) as u32);
        }
    }
    let mut sink = PairSink::default();
    for rows in blocks(0..probe.len()) {
        let lo = rows.start;
        let keys = plan.pack(probe, probe_shared, rows, &mut blk);
        for (j, &k) in keys.iter().enumerate() {
            if k == MISS {
                continue;
            }
            let mut bi = table.head(k);
            while bi != CHAIN_END {
                sink.push(bi, (lo + j) as u32, budget)?;
                bi = table.next_row(bi);
            }
        }
        sink.end_block(budget)?;
    }
    Ok(sink.finish())
}

/// Hashed kernel: matching `(build, probe)` row pairs in
/// probe-major order (ascending build chain within a probe row). With a
/// key plan, one exact bitmap per key column says which probe rows can
/// match at all, and only those are hashed and looked up.
fn join_pairs_hashed(
    build: &CRel,
    probe: &CRel,
    build_shared: &[usize],
    probe_shared: &[usize],
    prefilter: Option<KeyPlan>,
    budget: &mut Budget,
) -> Result<PairLists, EvalError> {
    let reader = dict::reader();
    let build_hashes = key_hashes(build, build_shared, &reader);
    let table = ChainTable::build(build.len(), |i| build_hashes[i]);
    let mut sink = PairSink::default();
    let key_eq = |bi: usize, pi: usize| {
        rows_key_eq(build, bi, probe, pi, build_shared, probe_shared, &reader)
    };
    match prefilter {
        None => {
            let probe_hashes = key_hashes(probe, probe_shared, &reader);
            for (b, block) in probe_hashes.chunks(BLOCK).enumerate() {
                let rows = (b * BLOCK) as u32..;
                probe_hashed(
                    &table,
                    rows.zip(block.iter().copied()),
                    key_eq,
                    &mut sink,
                    budget,
                )?;
            }
        }
        Some(plan) => {
            let mut blk = plan.block(build.len().max(probe.len()));
            let maps = plan.range_bitmaps(build, build_shared, &mut blk);
            let mut sel: Vec<u32> = Vec::with_capacity(BLOCK.min(probe.len()));
            let mut hashes: Vec<u64> = Vec::with_capacity(sel.capacity());
            for rows in blocks(0..probe.len()) {
                plan.survivors(&maps, probe, probe_shared, rows, &mut blk, &mut sel);
                hashes.clear();
                hashes.resize(sel.len(), 0);
                for &c in probe_shared {
                    probe.column(c).write_hashes_at(&sel, &mut hashes, &reader);
                }
                let rows = sel
                    .iter()
                    .copied()
                    .zip(hashes.iter().map(|&h| finish_hash(h)));
                probe_hashed(&table, rows, key_eq, &mut sink, budget)?;
            }
        }
    }
    Ok(sink.finish())
}

/// Looks one block of probe rows `(row, key hash)` up in `table`, emits
/// the candidates whose keys verify, and settles the block.
#[inline]
fn probe_hashed(
    table: &ChainTable,
    block: impl Iterator<Item = (u32, u64)>,
    key_eq: impl Fn(usize, usize) -> bool,
    sink: &mut PairSink,
    budget: &mut Budget,
) -> Result<(), EvalError> {
    for (pi, ph) in block {
        table.for_each(ph, |bi| {
            if key_eq(bi, pi as usize) {
                sink.push(bi as u32, pi, budget)?;
            }
            Ok(())
        })?;
    }
    sink.end_block(budget)
}

/// Semijoin `a ⋉ b` — the columnar [`crate::ops::semijoin`].
pub fn semijoin(a: &CRel, b: &CRel, budget: &mut Budget) -> Result<CRel, EvalError> {
    crate::fail_point!("cops::semijoin");
    let (a_shared, b_shared, _) = join_layout(a, b);
    if a_shared.is_empty() {
        return if b.is_empty() {
            Ok(CRel::empty(a.cols().to_vec()))
        } else {
            // The survivors are `a`'s own columns, shared: tuples are
            // charged, no new bytes are resident.
            budget.charge(a.len() as u64)?;
            Ok(a.clone())
        };
    }

    // Build table + both hash arrays, released when the kernel returns
    // (mirrors the row semijoin: the reducer side is expected to fit).
    let table_bytes = ops::join_build_bytes(b.len(), a.len());
    budget.reserve_bytes(table_bytes)?;
    // Membership in `b`'s keys: a bitmap over the packed key range when
    // the key has a plan and that fits in the reservation (no table, no
    // hashes), else the hashed table with typed verification.
    enum Members {
        Dense(KeyPlan, Bitmap),
        Hashed(ChainTable, Vec<u64>),
    }
    let dense = KeyPlan::resolve(b, &b_shared, a, &a_shared).and_then(|plan| {
        let range = plan.range_fitting(table_bytes, Bitmap::byte_estimate)?;
        let set = plan.packed_set(b, &b_shared, range);
        Some(Members::Dense(plan, set))
    });
    let members = dense.unwrap_or_else(|| {
        let reader = dict::reader();
        let b_hashes = key_hashes(b, &b_shared, &reader);
        let a_hashes = key_hashes(a, &a_shared, &reader);
        Members::Hashed(ChainTable::build(b.len(), |i| b_hashes[i]), a_hashes)
    });
    // The rows of `a` with a partner in `b`, ascending.
    let mut scan = || -> Result<Vec<u32>, EvalError> {
        let mut out = Vec::new();
        let mut keep = |i: usize| {
            budget.charge(1)?;
            budget.charge_bytes(4)?;
            out.push(i as u32);
            Ok::<(), EvalError>(())
        };
        match &members {
            Members::Dense(plan, set) => {
                let mut blk = plan.block(a.len());
                for rows in blocks(0..a.len()) {
                    let lo = rows.start;
                    let keys = plan.pack(a, &a_shared, rows, &mut blk);
                    for (j, &k) in keys.iter().enumerate() {
                        if set.contains(k) {
                            keep(lo + j)?;
                        }
                    }
                }
            }
            Members::Hashed(table, a_hashes) => {
                let reader = dict::reader();
                for (ai, &h) in a_hashes.iter().enumerate() {
                    let partner = |bi| rows_key_eq(a, ai, b, bi, &a_shared, &b_shared, &reader);
                    if table.any(h, partner) {
                        keep(ai)?;
                    }
                }
            }
        }
        Ok(out)
    };

    let keep_result = scan();
    budget.uncharge_bytes(table_bytes);
    let keep = keep_result?;
    let columns = a
        .columns()
        .iter()
        .map(|c| Arc::new(c.gather(&keep)))
        .collect();
    let out = CRel::new(a.cols().to_vec(), columns, keep.len());
    budget.charge_bytes(crel_payload_bytes(&out))?;
    Ok(out)
}

/// Projects `a` onto `vars` — the columnar [`crate::ops::project`].
/// Distinct mode dedups via per-row key hashes with typed verification;
/// bag mode shares `a`'s columns (no per-cell work, no bytes charged).
pub fn project(
    a: &CRel,
    vars: &[String],
    distinct: bool,
    budget: &mut Budget,
) -> Result<CRel, EvalError> {
    crate::fail_point!("cops::project");
    let idx: Vec<usize> = vars
        .iter()
        .map(|v| {
            a.col_index(v)
                .ok_or_else(|| EvalError::UnknownVariable(v.clone()))
        })
        .collect::<Result<_, _>>()?;
    if distinct {
        // Dedup state: the hash array plus the chained table over it —
        // or, on a dense key, a bitmap over the packed keys that fits in
        // the same bytes — reserved as one block and released once the
        // kept indices are known.
        let map_bytes = 8 * a.len() as u64 + ChainTable::byte_estimate(a.len());
        budget.reserve_bytes(map_bytes)?;
        let mut keep: Vec<u32> = Vec::new();
        let mut keep_row = |i: usize| {
            budget.charge(1)?;
            budget.charge_bytes(4)?;
            keep.push(i as u32);
            Ok::<(), EvalError>(())
        };
        let dense = KeyPlan::resolve(a, &idx, a, &idx).and_then(|plan| {
            let range = plan.range_fitting(map_bytes, Bitmap::byte_estimate)?;
            Some((plan, range))
        });
        let run = || {
            if let Some((plan, range)) = dense {
                let mut seen = Bitmap::new(range as u64);
                let mut blk = plan.block(a.len());
                for rows in blocks(0..a.len()) {
                    let lo = rows.start;
                    for (j, &k) in plan.pack(a, &idx, rows, &mut blk).iter().enumerate() {
                        if seen.insert(k) {
                            keep_row(lo + j)?;
                        }
                    }
                }
            } else {
                let reader = dict::reader();
                let hashes = key_hashes(a, &idx, &reader);
                let table = ChainTable::build(a.len(), |i| hashes[i]);
                for (i, &h) in hashes.iter().enumerate() {
                    // Chains ascend and row `i` is on its own chain: it
                    // repeats a key iff a row ahead of it there holds it.
                    let mut j = table.head(h) as usize;
                    while j < i && !rows_key_eq(a, i, a, j, &idx, &idx, &reader) {
                        j = table.next_row(j as u32) as usize;
                    }
                    if j == i {
                        keep_row(i)?;
                    }
                }
            }
            Ok(())
        };
        let result: Result<(), EvalError> = run();
        budget.uncharge_bytes(map_bytes);
        result?;
        let columns = idx
            .iter()
            .map(|&c| Arc::new(a.column(c).gather(&keep)))
            .collect();
        let out = CRel::new(vars.to_vec(), columns, keep.len());
        budget.charge_bytes(crel_payload_bytes(&out))?;
        Ok(out)
    } else {
        budget.charge(a.len() as u64)?;
        let columns = idx.iter().map(|&c| Arc::clone(&a.columns()[c])).collect();
        Ok(CRel::new(vars.to_vec(), columns, a.len()))
    }
}

/// Projects onto the intersection of `a`'s columns and `vars`, with
/// distinct rows. This is the "project onto χ(p)" step of decomposition
/// evaluation, where χ(p) may mention variables `a` does not carry yet.
///
/// When the projection keeps every column it is the identity: joins of
/// duplicate-free inputs are duplicate-free, so the (expensive) dedup pass
/// is skipped entirely.
pub fn project_onto_available(
    a: &CRel,
    vars: &[String],
    budget: &mut Budget,
) -> Result<CRel, EvalError> {
    let avail: Vec<String> = vars
        .iter()
        .filter(|v| a.col_index(v).is_some())
        .cloned()
        .collect();
    if avail.len() == a.cols().len() {
        return Ok(a.clone());
    }
    project(a, &avail, true, budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;
    use crate::value::Value;
    use crate::vrel::VRelation;

    fn vrel(cols: &[&str], rows: &[&[i64]]) -> VRelation {
        VRelation::from_rows(
            cols.iter().map(|c| c.to_string()).collect(),
            rows.iter()
                .map(|r| r.iter().map(|&i| Value::Int(i)).collect())
                .collect(),
        )
    }

    fn crel(cols: &[&str], rows: &[&[i64]]) -> CRel {
        CRel::from_vrel(&vrel(cols, rows))
    }

    #[test]
    fn join_matches_row_kernel() {
        let a = vrel(&["x", "y"], &[&[1, 10], &[2, 20], &[3, 20]]);
        let b = vrel(&["y", "z"], &[&[10, 100], &[20, 200], &[20, 201]]);
        let mut b1 = Budget::unlimited();
        let mut b2 = Budget::unlimited();
        let row = ops::natural_join(&a, &b, &mut b1).unwrap();
        let col = natural_join(&CRel::from_vrel(&a), &CRel::from_vrel(&b), &mut b2).unwrap();
        assert!(col.to_vrel().set_eq(&row));
        assert_eq!(b1.charged(), b2.charged());
    }

    #[test]
    fn join_with_neutral_is_identity() {
        let a = crel(&["x"], &[&[1], &[2]]);
        let mut budget = Budget::unlimited();
        let j = natural_join(&a, &CRel::neutral(), &mut budget).unwrap();
        assert!(j.to_vrel().set_eq(&a.to_vrel()));
        let j2 = natural_join(&CRel::neutral(), &a, &mut budget).unwrap();
        assert!(j2.to_vrel().set_eq(&a.to_vrel()));
    }

    #[test]
    fn cross_product_when_no_shared_columns() {
        let a = crel(&["x"], &[&[1], &[2]]);
        let b = crel(&["y"], &[&[7], &[8], &[9]]);
        let mut budget = Budget::unlimited();
        let j = natural_join(&a, &b, &mut budget).unwrap();
        assert_eq!(j.len(), 6);
        assert_eq!(budget.charged(), 6);
    }

    #[test]
    fn join_respects_budget() {
        let a = crel(&["x"], &[&[1], &[2], &[3]]);
        let b = crel(&["y"], &[&[1], &[2], &[3]]);
        let mut budget = Budget::unlimited().with_max_tuples(5);
        assert!(natural_join(&a, &b, &mut budget)
            .unwrap_err()
            .is_resource_limit());
    }

    #[test]
    fn swapped_sides_preserve_caller_column_order() {
        let a = vrel(&["x", "y"], &[&[1, 10], &[2, 20], &[3, 20]]);
        let b = vrel(&["y"], &[&[20]]);
        let mut budget = Budget::unlimited();
        let ab = natural_join(&CRel::from_vrel(&a), &CRel::from_vrel(&b), &mut budget).unwrap();
        let ba = natural_join(&CRel::from_vrel(&b), &CRel::from_vrel(&a), &mut budget).unwrap();
        assert_eq!(ab.cols(), &["x".to_string(), "y".to_string()]);
        assert_eq!(ba.cols(), &["y".to_string(), "x".to_string()]);
        assert!(ab.to_vrel().set_eq(&ba.to_vrel()));
    }

    #[test]
    fn semijoin_matches_row_kernel() {
        let a = vrel(&["x", "y"], &[&[1, 10], &[2, 20], &[3, 30]]);
        let b = vrel(&["y", "z"], &[&[10, 0], &[30, 0]]);
        let mut b1 = Budget::unlimited();
        let mut b2 = Budget::unlimited();
        let row = ops::semijoin(&a, &b, &mut b1).unwrap();
        let col = semijoin(&CRel::from_vrel(&a), &CRel::from_vrel(&b), &mut b2).unwrap();
        assert!(col.to_vrel().set_eq(&row));
        assert_eq!(b1.charged(), b2.charged());
    }

    #[test]
    fn semijoin_no_shared_columns() {
        let a = crel(&["x"], &[&[1], &[2]]);
        let empty = CRel::empty(vec!["y".into()]);
        let some = crel(&["y"], &[&[9]]);
        let mut budget = Budget::unlimited();
        assert!(semijoin(&a, &empty, &mut budget).unwrap().is_empty());
        assert!(semijoin(&a, &some, &mut budget)
            .unwrap()
            .to_vrel()
            .set_eq(&a.to_vrel()));
    }

    #[test]
    fn project_distinct_and_bag() {
        let a = crel(&["x", "y"], &[&[1, 10], &[1, 20], &[2, 10]]);
        let mut budget = Budget::unlimited();
        let p = project(&a, &["x".to_string()], true, &mut budget).unwrap();
        assert_eq!(p.len(), 2);
        let p2 = project(&a, &["x".to_string()], false, &mut budget).unwrap();
        assert_eq!(p2.len(), 3);
        assert!(matches!(
            project(&a, &["zz".to_string()], true, &mut budget),
            Err(EvalError::UnknownVariable(_))
        ));
    }

    #[test]
    fn project_onto_available_ignores_missing() {
        let a = crel(&["x", "y"], &[&[1, 10]]);
        let mut budget = Budget::unlimited();
        let p =
            project_onto_available(&a, &["x".to_string(), "w".to_string()], &mut budget).unwrap();
        assert_eq!(p.cols(), &["x".to_string()]);
    }
}
