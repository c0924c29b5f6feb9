//! Physical operators over [`VRelation`]s: natural (hash) join, semijoin,
//! projection, and selection. Every operator charges freshly materialized
//! tuples to a [`Budget`], which is how the harness reproduces the paper's
//! "did not terminate" baseline data points deterministically.
//!
//! # The join kernel
//!
//! Joins key their hash tables by a 64-bit in-place hash of the shared
//! columns ([`crate::hash::hash_key`]) and verify candidate matches
//! against the actual values — no per-row boxed-key allocation
//! (`tests/alloc_regression.rs` bounds allocations per input row). One
//! [`ChainTable`] over the whole build side, probed in probe-row order on
//! the calling thread; when the build reservation is denied the same join
//! runs as a grace spill ([`grace_join_spill`]).

use crate::chain::ChainTable;
use crate::error::{Budget, EvalError, SpillMode, SpillStats};
use crate::hash::{hash_key, keys_eq, FxHashMap};
use crate::spill::{
    spill_partition, SpillDir, SpillFile, SpillReader, SpillWriter, MAX_SPILL_LEVEL, SPILL_FANOUT,
};
use crate::value::{row_heap_bytes, Row, Value};
use crate::vrel::VRelation;
use std::sync::Arc;

/// Column positions of the shared variables in `a` and `b`, plus the
/// positions in `b` of its non-shared columns.
fn join_layout(a: &VRelation, b: &VRelation) -> (Vec<usize>, Vec<usize>, Vec<usize>) {
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

/// Natural join of `a` and `b` on their shared variables. With no shared
/// variables this degenerates to a cross product (still budget-charged).
///
/// The hash table is built on the smaller input (see the module docs).
pub fn natural_join(
    a: &VRelation,
    b: &VRelation,
    budget: &mut Budget,
) -> Result<VRelation, EvalError> {
    crate::fail_point!("ops::join");
    budget.join_stats().add_hash_build();
    // Build on the smaller side: swap so `build` is smallest.
    let (build, probe, swapped) = if a.len() <= b.len() {
        (a, b, false)
    } else {
        (b, a, true)
    };
    let (build_shared, probe_shared, probe_rest) = join_layout(build, probe);

    let mut out_cols: Vec<String> = build.cols().to_vec();
    out_cols.extend(probe_rest.iter().map(|&j| probe.cols()[j].clone()));

    let rows = if join_build_reservation(budget, &build_shared, build.len(), probe.len())? {
        grace_join_spill(
            build.len(),
            |i| build.rows()[i].clone(),
            |i| hash_key(&build.rows()[i], &build_shared),
            probe.len(),
            |i| probe.rows()[i].clone(),
            |i| hash_key(&probe.rows()[i], &probe_shared),
            &build_shared,
            &probe_shared,
            &probe_rest,
            build.cols().len(),
            budget,
        )?
    } else {
        let result = join_rows(
            build,
            probe,
            &build_shared,
            &probe_shared,
            &probe_rest,
            budget,
        );
        // The build table is gone either way.
        budget.uncharge_bytes(join_build_bytes(build.len(), probe.len()));
        result?
    };
    let out = VRelation::from_rows(out_cols, rows);

    // The output column order depends only on (build, probe); make it
    // deterministic w.r.t. the caller's argument order by rotating when we
    // swapped. Variable-named columns make order semantically irrelevant,
    // but deterministic output keeps tests and EXPLAIN stable.
    if swapped {
        let desired: Vec<String> = {
            let mut cols: Vec<String> = a.cols().to_vec();
            cols.extend(b.cols().iter().filter(|c| !a.cols().contains(c)).cloned());
            cols
        };
        return Ok(reorder(&out, &desired));
    }
    Ok(out)
}

/// Emits the joined row `build_row ++ probe_rest(probe_row)`.
#[inline]
fn emit_joined(brow: &Row, prow: &Row, probe_rest: &[usize], width: usize) -> Row {
    let mut row: Vec<Value> = Vec::with_capacity(width);
    row.extend(brow.iter().cloned());
    row.extend(probe_rest.iter().map(|&j| prow[j].clone()));
    row.into_boxed_slice()
}

/// Bytes the in-memory join path reserves up front and releases when the
/// kernel returns: the chained hash table over the build side plus one
/// hash word per row of either side (the columnar kernels hash a side
/// into such an array; the amount is also what decides between the
/// in-memory and the spill path, so it is part of every byte-limited
/// plan's behaviour).
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

/// The hash join kernel: hashes keys in place, one table for the whole
/// build side.
fn join_rows(
    build: &VRelation,
    probe: &VRelation,
    build_shared: &[usize],
    probe_shared: &[usize],
    probe_rest: &[usize],
    budget: &mut Budget,
) -> Result<Vec<Row>, EvalError> {
    let width = build.cols().len() + probe_rest.len();
    let row_bytes = row_heap_bytes(width);
    let table = ChainTable::build(build.len(), |i| hash_key(&build.rows()[i], build_shared));
    let mut out: Vec<Row> = Vec::new();
    for prow in probe.rows() {
        table.for_each(hash_key(prow, probe_shared), |bi| {
            let brow = &build.rows()[bi];
            if keys_eq(brow, build_shared, prow, probe_shared) {
                budget.charge(1)?;
                budget.charge_bytes(row_bytes)?;
                out.push(emit_joined(brow, prow, probe_rest, width));
            }
            Ok(())
        })?;
    }
    Ok(out)
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

/// Writes every row of one join side into [`SPILL_FANOUT`] partition
/// files at `level`, each frame prefixed with the row's key hash (as an
/// `Int` value) so downstream passes never rehash.
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

/// Key hash stored as the first value of every spilled join frame.
fn frame_hash(frame: &Row) -> Result<u64, EvalError> {
    match frame.first() {
        Some(Value::Int(h)) => Ok(*h as u64),
        _ => Err(EvalError::SpillIo(
            "spill frame missing its hash prefix".into(),
        )),
    }
}

/// Splits a spilled frame into `(key hash, original row)`.
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

/// The in-memory tail of [`join_spilled_partition`], separated so its
/// caller can release the build reservation on every exit path.
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
                out.push(emit_joined(brow, &prow, probe_rest, width));
            }
            Ok(())
        })?;
    }
    Ok(())
}

/// Reorders columns of `r` to `desired` (must be a permutation).
fn reorder(r: &VRelation, desired: &[String]) -> VRelation {
    let perm: Vec<usize> = desired
        .iter()
        .map(|c| r.col_index(c).expect("reorder: missing column"))
        .collect();
    let rows: Vec<Row> = r
        .rows()
        .iter()
        .map(|row| perm.iter().map(|&i| row[i].clone()).collect())
        .collect();
    VRelation::from_rows(desired.to_vec(), rows)
}

/// Reference nested-loop natural join: quadratic, allocation-happy, and
/// obviously correct. Used as the oracle in property tests against the
/// hash join; never called by the planners.
pub fn nested_loop_join(
    a: &VRelation,
    b: &VRelation,
    budget: &mut Budget,
) -> Result<VRelation, EvalError> {
    let (a_shared, b_shared, b_rest) = join_layout(a, b);
    let mut out_cols: Vec<String> = a.cols().to_vec();
    out_cols.extend(b_rest.iter().map(|&j| b.cols()[j].clone()));
    let mut out = VRelation::empty(out_cols);
    for ra in a.rows() {
        for rb in b.rows() {
            if a_shared
                .iter()
                .zip(&b_shared)
                .all(|(&i, &j)| ra[i] == rb[j])
            {
                budget.charge(1)?;
                let mut row: Vec<Value> = ra.to_vec();
                row.extend(b_rest.iter().map(|&j| rb[j].clone()));
                out.push(row.into_boxed_slice());
            }
        }
    }
    Ok(out)
}

/// Semijoin `a ⋉ b`: rows of `a` with at least one match in `b` on the
/// shared variables. With no shared variables, returns `a` unchanged if
/// `b` is non-empty, else the empty relation.
///
/// Uses the same hash-in-place scheme as [`natural_join`].
pub fn semijoin(a: &VRelation, b: &VRelation, budget: &mut Budget) -> Result<VRelation, EvalError> {
    crate::fail_point!("ops::semijoin");
    let (a_shared, b_shared, _) = join_layout(a, b);
    if a_shared.is_empty() {
        return if b.is_empty() {
            Ok(VRelation::empty(a.cols().to_vec()))
        } else {
            budget.charge(a.len() as u64)?;
            budget.charge_bytes(a.len() as u64 * row_heap_bytes(a.cols().len()))?;
            Ok(a.clone())
        };
    }

    // Build: hash → chain of b-row indices (kept to verify collisions).
    // The semijoin build side is the reducer — typically the small side —
    // so a denied reservation is a hard error rather than a spill.
    let table_bytes = ChainTable::byte_estimate(b.len());
    budget.reserve_bytes(table_bytes)?;
    let table = ChainTable::build(b.len(), |i| hash_key(&b.rows()[i], &b_shared));
    let matches = |row: &Row| {
        table.any(hash_key(row, &a_shared), |bi| {
            keys_eq(row, &a_shared, &b.rows()[bi], &b_shared)
        })
    };

    let row_bytes = row_heap_bytes(a.cols().len());
    let mut run = || {
        let mut out = Vec::new();
        for row in a.rows() {
            if matches(row) {
                budget.charge(1)?;
                budget.charge_bytes(row_bytes)?;
                out.push(row.clone());
            }
        }
        Ok(out)
    };
    let rows_result: Result<Vec<Row>, EvalError> = run();
    budget.uncharge_bytes(table_bytes);
    Ok(VRelation::from_rows(a.cols().to_vec(), rows_result?))
}

/// Projects `a` onto `vars` (which must all exist). `distinct` switches on
/// set semantics.
pub fn project(
    a: &VRelation,
    vars: &[String],
    distinct: bool,
    budget: &mut Budget,
) -> Result<VRelation, EvalError> {
    crate::fail_point!("ops::project");
    let idx: Vec<usize> = vars
        .iter()
        .map(|v| {
            a.col_index(v)
                .ok_or_else(|| EvalError::UnknownVariable(v.clone()))
        })
        .collect::<Result<_, _>>()?;
    let mut out = VRelation::empty(vars.to_vec());
    let row_bytes = row_heap_bytes(idx.len());
    if distinct {
        // Dedup via an in-place hash of the projected columns: candidate
        // duplicates are verified against rows already emitted, so no
        // second copy of each row is ever allocated. The dedup map itself
        // is reserved up front and charged as one block.
        let all: Vec<usize> = (0..idx.len()).collect();
        let map_bytes =
            (a.len() * std::mem::size_of::<(u64, Vec<u32>)>()) as u64 + 4 * a.len() as u64;
        budget.reserve_bytes(map_bytes)?;
        let mut seen: FxHashMap<u64, Vec<u32>> = FxHashMap::default();
        seen.reserve(a.len());
        let mut run = || {
            for row in a.rows() {
                let h = hash_key(row, &idx);
                let bucket = seen.entry(h).or_default();
                let dup = bucket
                    .iter()
                    .any(|&oi| keys_eq(row, &idx, &out.rows()[oi as usize], &all));
                if !dup {
                    budget.charge(1)?;
                    budget.charge_bytes(row_bytes)?;
                    bucket.push(out.len() as u32);
                    out.push(idx.iter().map(|&i| row[i].clone()).collect());
                }
            }
            Ok(())
        };
        let result: Result<(), EvalError> = run();
        budget.uncharge_bytes(map_bytes);
        result?;
    } else {
        budget.charge(a.len() as u64)?;
        budget.charge_bytes(a.len() as u64 * row_bytes)?;
        out.reserve(a.len());
        for row in a.rows() {
            out.push(idx.iter().map(|&i| row[i].clone()).collect());
        }
    }
    Ok(out)
}

/// Keeps rows satisfying `pred`.
pub fn select_rows(
    a: &VRelation,
    mut pred: impl FnMut(&Row) -> Result<bool, EvalError>,
    budget: &mut Budget,
) -> Result<VRelation, EvalError> {
    let mut out = VRelation::empty(a.cols().to_vec());
    let row_bytes = row_heap_bytes(a.cols().len());
    for row in a.rows() {
        if pred(row)? {
            budget.charge(1)?;
            budget.charge_bytes(row_bytes)?;
            out.push(row.clone());
        }
    }
    Ok(out)
}

/// Sorts rows by the given `(column, descending)` keys, using SQL
/// comparison semantics with a total-order fallback.
pub fn sort_by(a: &VRelation, keys: &[(String, bool)]) -> Result<VRelation, EvalError> {
    let idx: Vec<(usize, bool)> = keys
        .iter()
        .map(|(v, desc)| {
            a.col_index(v)
                .map(|i| (i, *desc))
                .ok_or_else(|| EvalError::UnknownVariable(v.clone()))
        })
        .collect::<Result<_, _>>()?;
    let mut rows = a.rows().to_vec();
    rows.sort_by(|x, y| {
        for &(i, desc) in &idx {
            let ord = x[i].cmp(&y[i]);
            if ord != std::cmp::Ordering::Equal {
                return if desc { ord.reverse() } else { ord };
            }
        }
        std::cmp::Ordering::Equal
    });
    Ok(VRelation::from_rows(a.cols().to_vec(), rows))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel(cols: &[&str], rows: &[&[i64]]) -> VRelation {
        VRelation::from_rows(
            cols.iter().map(|c| c.to_string()).collect(),
            rows.iter()
                .map(|r| r.iter().map(|&i| Value::Int(i)).collect())
                .collect(),
        )
    }

    #[test]
    fn join_on_shared_column() {
        let a = rel(&["x", "y"], &[&[1, 10], &[2, 20]]);
        let b = rel(&["y", "z"], &[&[10, 100], &[10, 101], &[30, 300]]);
        let mut budget = Budget::unlimited();
        let j = natural_join(&a, &b, &mut budget).unwrap();
        let expect = rel(&["x", "y", "z"], &[&[1, 10, 100], &[1, 10, 101]]);
        assert!(j.set_eq(&expect));
        assert_eq!(budget.charged(), 2);
    }

    #[test]
    fn join_is_symmetric_up_to_column_order() {
        let a = rel(&["x", "y"], &[&[1, 10], &[2, 20], &[3, 20]]);
        let b = rel(&["y"], &[&[20]]);
        let mut budget = Budget::unlimited();
        let ab = natural_join(&a, &b, &mut budget).unwrap();
        let ba = natural_join(&b, &a, &mut budget).unwrap();
        assert!(ab.set_eq(&ba));
        assert_eq!(ab.cols(), &["x".to_string(), "y".to_string()]);
        assert_eq!(ba.cols(), &["y".to_string(), "x".to_string()]);
    }

    #[test]
    fn join_without_shared_columns_is_cross_product() {
        let a = rel(&["x"], &[&[1], &[2]]);
        let b = rel(&["y"], &[&[7], &[8], &[9]]);
        let mut budget = Budget::unlimited();
        let j = natural_join(&a, &b, &mut budget).unwrap();
        assert_eq!(j.len(), 6);
        assert_eq!(budget.charged(), 6);
    }

    #[test]
    fn join_with_neutral_is_identity() {
        let a = rel(&["x"], &[&[1], &[2]]);
        let mut budget = Budget::unlimited();
        let j = natural_join(&a, &VRelation::neutral(), &mut budget).unwrap();
        assert!(j.set_eq(&a));
        let j2 = natural_join(&VRelation::neutral(), &a, &mut budget).unwrap();
        assert!(j2.set_eq(&a));
    }

    #[test]
    fn join_respects_budget() {
        let a = rel(&["x"], &[&[1], &[2], &[3]]);
        let b = rel(&["y"], &[&[1], &[2], &[3]]);
        let mut budget = Budget::unlimited().with_max_tuples(5);
        let err = natural_join(&a, &b, &mut budget).unwrap_err();
        assert!(err.is_resource_limit());
    }

    #[test]
    fn semijoin_filters() {
        let a = rel(&["x", "y"], &[&[1, 10], &[2, 20], &[3, 30]]);
        let b = rel(&["y", "z"], &[&[10, 0], &[30, 0]]);
        let mut budget = Budget::unlimited();
        let s = semijoin(&a, &b, &mut budget).unwrap();
        assert!(s.set_eq(&rel(&["x", "y"], &[&[1, 10], &[3, 30]])));
    }

    #[test]
    fn semijoin_no_shared_columns() {
        let a = rel(&["x"], &[&[1], &[2]]);
        let empty = VRelation::empty(vec!["y".into()]);
        let some = rel(&["y"], &[&[9]]);
        let mut budget = Budget::unlimited();
        assert!(semijoin(&a, &empty, &mut budget).unwrap().is_empty());
        assert!(semijoin(&a, &some, &mut budget).unwrap().set_eq(&a));
    }

    #[test]
    fn project_distinct_and_bag() {
        let a = rel(&["x", "y"], &[&[1, 10], &[1, 20], &[2, 10]]);
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
    fn select_rows_predicate() {
        let a = rel(&["x"], &[&[1], &[2], &[3]]);
        let mut budget = Budget::unlimited();
        let s = select_rows(&a, |r| Ok(r[0] >= Value::Int(2)), &mut budget).unwrap();
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn sort_by_keys() {
        let a = rel(&["x", "y"], &[&[1, 3], &[2, 1], &[1, 1]]);
        let sorted = sort_by(&a, &[("x".to_string(), false), ("y".to_string(), true)]).unwrap();
        let rows: Vec<Vec<i64>> = sorted
            .rows()
            .iter()
            .map(|r| {
                r.iter()
                    .map(|v| match v {
                        Value::Int(i) => *i,
                        _ => panic!(),
                    })
                    .collect()
            })
            .collect();
        assert_eq!(rows, vec![vec![1, 3], vec![1, 1], vec![2, 1]]);
        assert!(sort_by(&a, &[("zz".to_string(), false)]).is_err());
    }

    #[test]
    fn self_join_duplicate_semantics() {
        // Joining a relation with itself on all columns yields the same rows.
        let a = rel(&["x"], &[&[1], &[1], &[2]]);
        let mut budget = Budget::unlimited();
        let j = natural_join(&a, &a, &mut budget).unwrap();
        // Bag semantics: 1 appears twice on each side → 4 combinations.
        assert_eq!(j.len(), 5);
    }
}
