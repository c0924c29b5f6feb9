//! Final aggregation (step (4) of the paper's pipeline): given the answer
//! of `CQ(Q)` as a [`VRelation`] over `out(Q)`, compute GROUP BY groups,
//! aggregate functions, final projection (dropping hidden rowid guards) and
//! ORDER BY.

use crate::cops;
use crate::crel::CRel;
use crate::dict;
use crate::error::{Budget, EvalError, SpillMode};
use crate::expr::eval_scalar;
use crate::hash::{hash_key, FxHashMap};
use crate::ops::{self, sort_by};
use crate::spill::{SpillDir, SpillFile, SpillReader, MAX_SPILL_LEVEL};
use crate::value::{row_heap_bytes, Row, Value};
use crate::vrel::VRelation;
use htqo_cq::isolator::is_hidden_label;
use htqo_cq::{AggFunc, ConjunctiveQuery, OutputItem, SortDir};
use std::collections::HashMap;

/// Visible output items of `q` and their (uniquified) labels.
pub(crate) fn visible_output(q: &ConjunctiveQuery) -> (Vec<&OutputItem>, Vec<String>) {
    let visible: Vec<&OutputItem> = q
        .output
        .iter()
        .filter(|o| !is_hidden_label(o.label()))
        .collect();
    // SQL allows duplicate output column names (`SELECT a.x, b.x`); our
    // relations do not, so repeated labels get a numeric suffix.
    let labels = uniquify(
        &visible
            .iter()
            .map(|o| o.label().to_string())
            .collect::<Vec<_>>(),
    );
    (visible, labels)
}

/// Visible head variables in SELECT order (errors on aggregates — callers
/// check `q.has_aggregates()` first).
fn head_vars(visible: &[&OutputItem]) -> Vec<String> {
    visible
        .iter()
        .map(|o| match o {
            OutputItem::Var { var, .. } => var.clone(),
            OutputItem::Aggregate { .. } => unreachable!("filtered above"),
        })
        .collect()
}

/// Computes the final output of `q` from the answer relation of `CQ(Q)`.
///
/// `answer` must contain every variable of `out(Q)` as a column (hidden
/// rowid variables included); its rows are assumed distinct.
pub fn finalize(
    answer: &VRelation,
    q: &ConjunctiveQuery,
    budget: &mut Budget,
) -> Result<VRelation, EvalError> {
    crate::fail_point!("aggregate::finalize");
    let (visible, labels) = visible_output(q);
    let result = if q.has_aggregates() {
        aggregate(answer, q, &visible, &labels, budget)?
    } else {
        // No aggregates: project the answer onto the distinct visible head
        // variables (set semantics, matching the CQ answer definition),
        // then lay the columns out in SELECT order (a variable may be
        // selected more than once).
        let vars = head_vars(&visible);
        let mut distinct_vars = vars.clone();
        distinct_vars.dedup_preserving();
        let projected = crate::ops::project(answer, &distinct_vars, true, budget)?;
        let idx: Vec<usize> = vars
            .iter()
            .map(|v| projected.col_index(v).expect("just projected"))
            .collect();
        let rows: Vec<crate::value::Row> = projected
            .rows()
            .iter()
            .map(|r| idx.iter().map(|&i| r[i].clone()).collect())
            .collect();
        VRelation::from_rows(labels.clone(), rows)
    };
    finalize_tail(result, q, budget)
}

/// [`finalize`] over a columnar answer: the grouping/projection front
/// runs column-at-a-time (vectorized group-key hashing, gather-based
/// layout), then the small post-aggregation result flows through the same
/// HAVING / ORDER BY / LIMIT tail as the row path.
pub fn finalize_c(
    answer: &CRel,
    q: &ConjunctiveQuery,
    budget: &mut Budget,
) -> Result<VRelation, EvalError> {
    crate::fail_point!("aggregate::finalize");
    let (visible, labels) = visible_output(q);
    let result = if q.has_aggregates() {
        aggregate_c(answer, q, &visible, &labels, budget)?
    } else {
        let vars = head_vars(&visible);
        let mut distinct_vars = vars.clone();
        distinct_vars.dedup_preserving();
        let projected = cops::project(answer, &distinct_vars, true, budget)?;
        // SELECT-order layout: a repeated variable is a column clone, not
        // a per-row copy.
        let idx: Vec<usize> = vars
            .iter()
            .map(|v| projected.col_index(v).expect("just projected"))
            .collect();
        let columns = idx
            .iter()
            .map(|&i| projected.columns()[i].clone())
            .collect();
        CRel::new(labels.clone(), columns, projected.len()).to_vrel()
    };
    finalize_tail(result, q, budget)
}

/// The shared post-aggregation tail: HAVING, ORDER BY, LIMIT.
pub(crate) fn finalize_tail(
    result: VRelation,
    q: &ConjunctiveQuery,
    budget: &mut Budget,
) -> Result<VRelation, EvalError> {
    // HAVING over output labels (post-aggregation row filter).
    let result = if q.having.is_empty() {
        result
    } else {
        let idx: Vec<(usize, htqo_cq::CmpOp, crate::value::Value)> = q
            .having
            .iter()
            .map(|(label, op, lit)| {
                let i = result
                    .col_index(label)
                    .ok_or_else(|| EvalError::UnknownVariable(label.clone()))?;
                Ok((i, *op, crate::value::Value::from(lit)))
            })
            .collect::<Result<_, EvalError>>()?;
        crate::ops::select_rows(
            &result,
            |row| {
                Ok(idx
                    .iter()
                    .all(|(i, op, v)| crate::expr::apply_cmp(*op, &row[*i], v)))
            },
            budget,
        )?
    };

    // ORDER BY over output labels, then LIMIT.
    let result = if q.order_by.is_empty() {
        result
    } else {
        let keys: Vec<(String, bool)> = q
            .order_by
            .iter()
            .map(|(label, dir)| (label.clone(), *dir == SortDir::Desc))
            .collect();
        sort_by(&result, &keys)?
    };
    Ok(match q.limit {
        Some(n) if n < result.len() => {
            VRelation::from_rows(result.cols().to_vec(), result.rows()[..n].to_vec())
        }
        _ => result,
    })
}

/// Appends `_2`, `_3`, … to repeated labels.
fn uniquify(labels: &[String]) -> Vec<String> {
    let mut seen: HashMap<String, usize> = HashMap::new();
    labels
        .iter()
        .map(|l| {
            let n = seen.entry(l.clone()).or_insert(0);
            *n += 1;
            if *n == 1 {
                l.clone()
            } else {
                format!("{l}_{n}")
            }
        })
        .collect()
}

/// First-occurrence dedup for small vectors.
trait DedupPreserving {
    fn dedup_preserving(&mut self);
}

impl DedupPreserving for Vec<String> {
    fn dedup_preserving(&mut self) {
        let mut seen = Vec::new();
        self.retain(|v| {
            if seen.contains(v) {
                false
            } else {
                seen.push(v.clone());
                true
            }
        });
    }
}

/// Resolves the GROUP BY column positions and validates that every
/// non-aggregate visible item is a grouping variable.
pub(crate) fn group_layout(
    cols: &[String],
    q: &ConjunctiveQuery,
    visible: &[&OutputItem],
) -> Result<Vec<usize>, EvalError> {
    let group_idx: Vec<usize> = q
        .group_by
        .iter()
        .map(|v| {
            cols.iter()
                .position(|c| c == v)
                .ok_or_else(|| EvalError::UnknownVariable(v.clone()))
        })
        .collect::<Result<_, _>>()?;
    for item in visible {
        if let OutputItem::Var { var, .. } = item {
            if !q.group_by.contains(var) {
                return Err(EvalError::Internal(format!(
                    "output variable `{var}` is neither aggregated nor grouped"
                )));
            }
        }
    }
    Ok(group_idx)
}

/// Resident bytes one group costs the governor: its key row, its
/// accumulators, and a map-entry allowance.
pub(crate) fn group_state_bytes(key_width: usize, n_items: usize) -> u64 {
    row_heap_bytes(key_width) + (n_items * std::mem::size_of::<Accumulator>()) as u64 + 48
}

/// A denied group-state reservation as a typed error.
pub(crate) fn group_state_exceeded(budget: &Budget, requested: u64) -> EvalError {
    EvalError::MemoryExceeded {
        requested,
        reserved: budget.mem_used(),
        pool: budget.mem_limit().unwrap_or(0),
    }
}

fn aggregate(
    answer: &VRelation,
    q: &ConjunctiveQuery,
    visible: &[&OutputItem],
    labels: &[String],
    budget: &mut Budget,
) -> Result<VRelation, EvalError> {
    let group_idx = group_layout(answer.cols(), q, visible)?;
    // Spill requires a group key to partition on; a global aggregate's
    // state is one row of accumulators and never spills.
    let spillable =
        !group_idx.is_empty() && answer.len() > 1 && budget.spill_mode() != SpillMode::Off;
    if spillable && budget.spill_mode() == SpillMode::Force {
        return aggregate_spilled(
            answer.len(),
            |i| answer.rows()[i].clone(),
            |i| hash_key(&answer.rows()[i], &group_idx),
            answer.cols(),
            &group_idx,
            q,
            visible,
            labels,
            budget,
        );
    }
    match aggregate_rows(answer, &group_idx, q, visible, labels, budget) {
        Err(EvalError::MemoryExceeded { .. }) if spillable => aggregate_spilled(
            answer.len(),
            |i| answer.rows()[i].clone(),
            |i| hash_key(&answer.rows()[i], &group_idx),
            answer.cols(),
            &group_idx,
            q,
            visible,
            labels,
            budget,
        ),
        r => r,
    }
}

/// In-memory row aggregation. Group state is charged to the byte
/// pool as groups appear and released when the function returns; the
/// (usually much smaller) output rows are charged on success. A denied
/// group reservation surfaces as [`EvalError::MemoryExceeded`] — the
/// callers' cue to re-run through the spill driver.
fn aggregate_rows(
    answer: &VRelation,
    group_idx: &[usize],
    q: &ConjunctiveQuery,
    visible: &[&OutputItem],
    labels: &[String],
    budget: &mut Budget,
) -> Result<VRelation, EvalError> {
    let mut accrued = 0u64;
    let result = aggregate_rows_inner(answer, group_idx, q, visible, labels, budget, &mut accrued);
    budget.uncharge_bytes(accrued);
    let out = result?;
    budget.charge_bytes(out.len() as u64 * row_heap_bytes(out.cols().len()))?;
    Ok(out)
}

#[allow(clippy::too_many_arguments)]
fn aggregate_rows_inner(
    answer: &VRelation,
    group_idx: &[usize],
    q: &ConjunctiveQuery,
    visible: &[&OutputItem],
    labels: &[String],
    budget: &mut Budget,
    accrued: &mut u64,
) -> Result<VRelation, EvalError> {
    let group_bytes = group_state_bytes(group_idx.len(), visible.len());
    let mut groups: HashMap<Row, Vec<Accumulator>> = HashMap::new();
    // Deterministic group ordering: remember first-seen order.
    let mut order: Vec<Row> = Vec::new();

    let cols = answer.cols().to_vec();
    for row in answer.rows() {
        let key: Row = group_idx.iter().map(|&i| row[i].clone()).collect();
        let accs = match groups.get_mut(&key) {
            Some(a) => a,
            None => {
                if !budget.try_reserve_bytes(group_bytes) {
                    return Err(group_state_exceeded(budget, group_bytes));
                }
                *accrued += group_bytes;
                budget.charge(1)?;
                order.push(key.clone());
                groups
                    .entry(key.clone())
                    .or_insert_with(|| visible.iter().map(|o| Accumulator::for_item(o)).collect())
            }
        };
        for (acc, item) in accs.iter_mut().zip(visible) {
            acc.feed(item, &cols, row)?;
        }
    }

    // Global aggregate over empty input still produces one row.
    if groups.is_empty() && q.group_by.is_empty() {
        let key: Row = Vec::new().into_boxed_slice();
        order.push(key.clone());
        groups.insert(
            key,
            visible.iter().map(|o| Accumulator::for_item(o)).collect(),
        );
    }

    let mut out = VRelation::empty(labels.to_vec());
    for key in order {
        let accs = &groups[&key];
        let mut row: Vec<Value> = Vec::with_capacity(visible.len());
        for (acc, item) in accs.iter().zip(visible) {
            row.push(match item {
                OutputItem::Var { var, .. } => {
                    let gpos = q.group_by.iter().position(|g| g == var).expect("validated");
                    key[gpos].clone()
                }
                OutputItem::Aggregate { .. } => acc.finish(),
            });
        }
        out.push(row.into_boxed_slice());
    }
    Ok(out)
}

/// Spilled aggregation driver, shared by the row and columnar fronts: the input is
/// hash-partitioned by its group key to checksummed temp files (so a
/// group lives in exactly one partition and no cross-partition merge is
/// ever needed), then each partition is aggregated in memory — recursing
/// with a re-salted partition function when a partition still does not
/// fit. Rows within a group keep their input order through every level,
/// so order-sensitive float accumulation matches the in-memory path
/// bit for bit.
#[allow(clippy::too_many_arguments)]
fn aggregate_spilled(
    n: usize,
    row: impl FnMut(usize) -> Row,
    hash: impl Fn(usize) -> u64,
    cols: &[String],
    group_idx: &[usize],
    q: &ConjunctiveQuery,
    visible: &[&OutputItem],
    labels: &[String],
    budget: &mut Budget,
) -> Result<VRelation, EvalError> {
    let stats = budget.spill_stats();
    let mut dir = SpillDir::create(budget.spill_dir())?;
    let parts = ops::partition_side(&dir, "g", n, row, hash, 0, &stats)?;
    let mut out = VRelation::empty(labels.to_vec());
    for p in &parts {
        aggregate_spilled_partition(
            &dir, p, 0, cols, group_idx, q, visible, labels, budget, &mut out,
        )?;
    }
    dir.cleanup()?;
    Ok(out)
}

/// Aggregates one spilled partition: loads its rows (reserving their
/// bytes) and aggregates in memory, re-partitioning one level deeper when
/// either the load reservation or the in-memory group state is denied. At
/// [`MAX_SPILL_LEVEL`] the denial surfaces as a clean `MemoryExceeded`
/// (one pathological group key can defeat any amount of partitioning).
#[allow(clippy::too_many_arguments)]
fn aggregate_spilled_partition(
    dir: &SpillDir,
    file: &SpillFile,
    level: u32,
    cols: &[String],
    group_idx: &[usize],
    q: &ConjunctiveQuery,
    visible: &[&OutputItem],
    labels: &[String],
    budget: &mut Budget,
    out: &mut VRelation,
) -> Result<(), EvalError> {
    if file.rows == 0 {
        return Ok(());
    }
    if budget.try_reserve_bytes(file.bytes) {
        let mut rows: Vec<Row> = Vec::with_capacity(file.rows as usize);
        let mut reader = SpillReader::open(&file.path)?;
        while let Some(frame) = reader.read_row()? {
            rows.push(ops::split_frame(frame)?.1);
        }
        drop(reader);
        let rel = VRelation::from_rows(cols.to_vec(), rows);
        let r = aggregate_rows(&rel, group_idx, q, visible, labels, budget);
        budget.uncharge_bytes(file.bytes);
        match r {
            Ok(part) => {
                for row in part.rows() {
                    out.push(row.clone());
                }
                Ok(())
            }
            Err(EvalError::MemoryExceeded { .. }) if level < MAX_SPILL_LEVEL => {
                aggregate_repartition(
                    dir, file, level, cols, group_idx, q, visible, labels, budget, out,
                )
            }
            Err(e) => Err(e),
        }
    } else if level < MAX_SPILL_LEVEL {
        aggregate_repartition(
            dir, file, level, cols, group_idx, q, visible, labels, budget, out,
        )
    } else {
        Err(group_state_exceeded(budget, file.bytes))
    }
}

/// Splits a spilled partition one level deeper and aggregates the pieces.
#[allow(clippy::too_many_arguments)]
fn aggregate_repartition(
    dir: &SpillDir,
    file: &SpillFile,
    level: u32,
    cols: &[String],
    group_idx: &[usize],
    q: &ConjunctiveQuery,
    visible: &[&OutputItem],
    labels: &[String],
    budget: &mut Budget,
    out: &mut VRelation,
) -> Result<(), EvalError> {
    let stats = budget.spill_stats();
    let subs = ops::repartition_file(dir, "g", file, level + 1, &stats)?;
    for s in &subs {
        aggregate_spilled_partition(
            dir,
            s,
            level + 1,
            cols,
            group_idx,
            q,
            visible,
            labels,
            budget,
            out,
        )?;
    }
    Ok(())
}

/// Columnar grouping: group identity is decided by one vectorized
/// key-hash pass over the GROUP BY columns plus typed cell verification —
/// no boxed `Row` keys are built for the hash map. Accumulator feeding
/// still materializes a row per input tuple *only* when some aggregate
/// carries a scalar expression (which is row-shaped by nature);
/// `COUNT(*)`-style aggregates run without touching a `Value`.
fn aggregate_c(
    answer: &CRel,
    q: &ConjunctiveQuery,
    visible: &[&OutputItem],
    labels: &[String],
    budget: &mut Budget,
) -> Result<VRelation, EvalError> {
    let group_idx = group_layout(answer.cols(), q, visible)?;
    let spillable =
        !group_idx.is_empty() && answer.len() > 1 && budget.spill_mode() != SpillMode::Off;
    let spill = |budget: &mut Budget| {
        // Rows stream straight out of the columns into the partition
        // files; decoded partitions aggregate through the row core (its
        // `Value`s round-trip the dictionary content-identically).
        let reader = dict::reader();
        let hashes = cops::key_hashes(answer, &group_idx, &reader);
        aggregate_spilled(
            answer.len(),
            |i| {
                answer
                    .columns()
                    .iter()
                    .map(|c| c.value_with(i, &reader))
                    .collect()
            },
            |i| hashes[i],
            answer.cols(),
            &group_idx,
            q,
            visible,
            labels,
            budget,
        )
    };
    if spillable && budget.spill_mode() == SpillMode::Force {
        return spill(budget);
    }
    match aggregate_c_mem(answer, &group_idx, q, visible, labels, budget) {
        Err(EvalError::MemoryExceeded { .. }) if spillable => spill(budget),
        r => r,
    }
}

/// In-memory columnar aggregation core; byte accounting mirrors
/// [`aggregate_rows`] (group state accrues against the pool, the hash
/// array is reserved up front, output rows are charged on success).
fn aggregate_c_mem(
    answer: &CRel,
    group_idx: &[usize],
    q: &ConjunctiveQuery,
    visible: &[&OutputItem],
    labels: &[String],
    budget: &mut Budget,
) -> Result<VRelation, EvalError> {
    let hash_bytes = 8 * answer.len() as u64;
    if !budget.try_reserve_bytes(hash_bytes) {
        return Err(group_state_exceeded(budget, hash_bytes));
    }
    let mut accrued = 0u64;
    let result = aggregate_c_inner(answer, group_idx, q, visible, labels, budget, &mut accrued);
    budget.uncharge_bytes(hash_bytes + accrued);
    let out = result?;
    budget.charge_bytes(out.len() as u64 * row_heap_bytes(out.cols().len()))?;
    Ok(out)
}

#[allow(clippy::too_many_arguments)]
fn aggregate_c_inner(
    answer: &CRel,
    group_idx: &[usize],
    q: &ConjunctiveQuery,
    visible: &[&OutputItem],
    labels: &[String],
    budget: &mut Budget,
    accrued: &mut u64,
) -> Result<VRelation, EvalError> {
    let group_bytes = group_state_bytes(group_idx.len(), visible.len());
    let needs_row = visible
        .iter()
        .any(|o| matches!(o, OutputItem::Aggregate { expr: Some(_), .. }));
    let cols = answer.cols().to_vec();

    let reader = dict::reader();
    let hashes = cops::key_hashes(answer, group_idx, &reader);
    // hash → candidate group ids; groups remember their first-seen row.
    let mut buckets: FxHashMap<u64, Vec<u32>> = FxHashMap::default();
    let mut first_row: Vec<u32> = Vec::new();
    let mut accs: Vec<Vec<Accumulator>> = Vec::new();
    let mut scratch: Row = Vec::new().into_boxed_slice();
    for (i, &h) in hashes.iter().enumerate() {
        let bucket = buckets.entry(h).or_default();
        let gid = bucket.iter().copied().find(|&g| {
            let j = first_row[g as usize] as usize;
            group_idx
                .iter()
                .all(|&c| answer.column(c).eq_at(i, answer.column(c), j, &reader))
        });
        let gid = match gid {
            Some(g) => g as usize,
            None => {
                if !budget.try_reserve_bytes(group_bytes) {
                    return Err(group_state_exceeded(budget, group_bytes));
                }
                *accrued += group_bytes;
                budget.charge(1)?;
                let g = first_row.len();
                bucket.push(g as u32);
                first_row.push(i as u32);
                accs.push(visible.iter().map(|o| Accumulator::for_item(o)).collect());
                g
            }
        };
        if needs_row {
            let row: Vec<Value> = answer
                .columns()
                .iter()
                .map(|c| c.value_with(i, &reader))
                .collect();
            scratch = row.into_boxed_slice();
        }
        for (acc, item) in accs[gid].iter_mut().zip(visible) {
            acc.feed(item, &cols, &scratch)?;
        }
    }

    // Global aggregate over empty input still produces one row.
    if accs.is_empty() && q.group_by.is_empty() {
        first_row.push(0);
        accs.push(visible.iter().map(|o| Accumulator::for_item(o)).collect());
    }

    let mut out = VRelation::empty(labels.to_vec());
    for (g, group_accs) in accs.iter().enumerate() {
        let mut row: Vec<Value> = Vec::with_capacity(visible.len());
        for (acc, item) in group_accs.iter().zip(visible) {
            row.push(match item {
                OutputItem::Var { var, .. } => {
                    let gpos = q.group_by.iter().position(|g| g == var).expect("validated");
                    answer
                        .column(group_idx[gpos])
                        .value_with(first_row[g] as usize, &reader)
                }
                OutputItem::Aggregate { .. } => acc.finish(),
            });
        }
        out.push(row.into_boxed_slice());
    }
    Ok(out)
}

/// Why [`Accumulator::feed_weighted`] cannot reproduce the plain
/// row-at-a-time feed bit for bit — the factorized front's cue to fall
/// back to full materialization.
pub(crate) enum WeightedFeedError {
    /// The iterated feed would accumulate floats, whose rounding depends
    /// on input order; a weighted shortcut cannot be bit-identical.
    OrderSensitive,
    /// A count would overflow `u64` under weighting.
    Overflow,
    /// A genuine evaluation error (bad scalar expression, non-numeric
    /// SUM input) that the materialized path would also surface.
    Eval(EvalError),
}

/// Streaming accumulator for one output item.
pub(crate) enum Accumulator {
    /// Placeholder for plain grouping variables.
    Group,
    Sum {
        int: i64,
        float: f64,
        any_float: bool,
        n: u64,
    },
    Count {
        n: u64,
    },
    MinMax {
        best: Option<Value>,
        min: bool,
    },
    Avg {
        sum: f64,
        n: u64,
    },
}

impl Accumulator {
    pub(crate) fn for_item(item: &OutputItem) -> Accumulator {
        match item {
            OutputItem::Var { .. } => Accumulator::Group,
            OutputItem::Aggregate { func, .. } => match func {
                AggFunc::Sum => Accumulator::Sum {
                    int: 0,
                    float: 0.0,
                    any_float: false,
                    n: 0,
                },
                AggFunc::Count => Accumulator::Count { n: 0 },
                AggFunc::Min => Accumulator::MinMax {
                    best: None,
                    min: true,
                },
                AggFunc::Max => Accumulator::MinMax {
                    best: None,
                    min: false,
                },
                AggFunc::Avg => Accumulator::Avg { sum: 0.0, n: 0 },
            },
        }
    }

    fn feed(&mut self, item: &OutputItem, cols: &[String], row: &Row) -> Result<(), EvalError> {
        let OutputItem::Aggregate { expr, .. } = item else {
            return Ok(());
        };
        let value = match expr {
            Some(e) => eval_scalar(e, cols, row)?,
            None => Value::Int(1), // COUNT(*): any non-null marker
        };
        match self {
            Accumulator::Group => {}
            Accumulator::Count { n } => {
                if !value.is_null() {
                    *n += 1;
                }
            }
            Accumulator::Sum {
                int,
                float,
                any_float,
                n,
            } => match value {
                Value::Null => {}
                Value::Int(i) => {
                    *int = int.wrapping_add(i);
                    *n += 1;
                }
                Value::Float(x) => {
                    *float += x;
                    *any_float = true;
                    *n += 1;
                }
                other => {
                    return Err(EvalError::Internal(format!(
                        "SUM over non-numeric value ({})",
                        other.type_name()
                    )))
                }
            },
            Accumulator::MinMax { best, min } => {
                if value.is_null() {
                    return Ok(());
                }
                let better = match best {
                    None => true,
                    Some(b) => {
                        let ord = value.cmp(b);
                        if *min {
                            ord.is_lt()
                        } else {
                            ord.is_gt()
                        }
                    }
                };
                if better {
                    *best = Some(value);
                }
            }
            Accumulator::Avg { sum, n } => {
                if let Some(x) = value.as_f64() {
                    *sum += x;
                    *n += 1;
                } else if !value.is_null() {
                    return Err(EvalError::Internal("AVG over non-numeric value".into()));
                }
            }
        }
        Ok(())
    }

    /// Feeds one answer-row multiplicity class of `weight` rows at once —
    /// the factorized aggregate front's replacement for calling
    /// [`Accumulator::feed`] `weight` times. Exact (bit-identical to the
    /// iterated feed) for grouping placeholders, COUNT, integer SUM and
    /// MIN/MAX; declines with [`WeightedFeedError::OrderSensitive`] when
    /// the iterated feed would accumulate floats (whose rounding depends
    /// on input order) and with [`WeightedFeedError::Overflow`] when a
    /// count would wrap where the iterated path could not.
    pub(crate) fn feed_weighted(
        &mut self,
        item: &OutputItem,
        cols: &[String],
        row: &Row,
        weight: u64,
    ) -> Result<(), WeightedFeedError> {
        let OutputItem::Aggregate { expr, .. } = item else {
            return Ok(());
        };
        let value = match expr {
            Some(e) => eval_scalar(e, cols, row).map_err(WeightedFeedError::Eval)?,
            None => Value::Int(1), // COUNT(*): any non-null marker
        };
        match self {
            Accumulator::Group => {}
            Accumulator::Count { n } => {
                if !value.is_null() {
                    // COUNT's counter *is* the result: overflow must not
                    // silently wrap.
                    *n = n.checked_add(weight).ok_or(WeightedFeedError::Overflow)?;
                }
            }
            Accumulator::Sum {
                int,
                float: _,
                any_float: _,
                n,
            } => match value {
                Value::Null => {}
                Value::Int(i) => {
                    // `weight` wrapping adds of `i` ≡ one wrapping add of
                    // `i * weight` mod 2^64, so this is exact.
                    *int = int.wrapping_add(i.wrapping_mul(weight as i64));
                    // `n` only decides SUM-of-nothing-is-NULL; saturation
                    // preserves its zero/non-zero meaning.
                    *n = n.saturating_add(weight);
                }
                Value::Float(_) => return Err(WeightedFeedError::OrderSensitive),
                other => {
                    return Err(WeightedFeedError::Eval(EvalError::Internal(format!(
                        "SUM over non-numeric value ({})",
                        other.type_name()
                    ))))
                }
            },
            Accumulator::MinMax { best, min } => {
                // Order- and multiplicity-free: feed the value once.
                if value.is_null() {
                    return Ok(());
                }
                let better = match best {
                    None => true,
                    Some(b) => {
                        let ord = value.cmp(b);
                        if *min {
                            ord.is_lt()
                        } else {
                            ord.is_gt()
                        }
                    }
                };
                if better {
                    *best = Some(value);
                }
            }
            // AVG divides an order-sensitively accumulated float sum;
            // callers exclude it statically, but stay safe here too.
            Accumulator::Avg { .. } => return Err(WeightedFeedError::OrderSensitive),
        }
        Ok(())
    }

    pub(crate) fn finish(&self) -> Value {
        match self {
            Accumulator::Group => Value::Null,
            Accumulator::Count { n } => Value::Int(*n as i64),
            Accumulator::Sum {
                int,
                float,
                any_float,
                n,
            } => {
                if *n == 0 {
                    Value::Null
                } else if *any_float {
                    Value::Float(*float + *int as f64)
                } else {
                    Value::Int(*int)
                }
            }
            Accumulator::MinMax { best, .. } => best.clone().unwrap_or(Value::Null),
            Accumulator::Avg { sum, n } => {
                if *n == 0 {
                    Value::Null
                } else {
                    Value::Float(*sum / *n as f64)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htqo_cq::{AggFunc, CqBuilder, ScalarExpr};

    fn answer(cols: &[&str], rows: Vec<Vec<Value>>) -> VRelation {
        VRelation::from_rows(
            cols.iter().map(|c| c.to_string()).collect(),
            rows.into_iter().map(|r| r.into_boxed_slice()).collect(),
        )
    }

    #[test]
    fn group_by_sum() {
        let q = CqBuilder::new()
            .atom_vars("r", &["G", "X"])
            .out_var("G")
            .out_agg(AggFunc::Sum, Some(ScalarExpr::Var("X".into())), "total")
            .group("G")
            .build();
        let a = answer(
            &["G", "X"],
            vec![
                vec![Value::str("a"), Value::Int(1)],
                vec![Value::str("a"), Value::Int(2)],
                vec![Value::str("b"), Value::Int(5)],
            ],
        );
        let mut budget = Budget::unlimited();
        let out = finalize(&a, &q, &mut budget).unwrap();
        assert_eq!(out.cols(), &["G".to_string(), "total".to_string()]);
        assert_eq!(out.len(), 2);
        assert_eq!(out.value(0, "total"), Some(&Value::Int(3)));
        assert_eq!(out.value(1, "total"), Some(&Value::Int(5)));
    }

    #[test]
    fn count_star_and_empty_input() {
        let q = CqBuilder::new()
            .atom_vars("r", &["X"])
            .out_agg(AggFunc::Count, None, "n")
            .build();
        let a = answer(&[], vec![]);
        let mut budget = Budget::unlimited();
        let out = finalize(&a, &q, &mut budget).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.value(0, "n"), Some(&Value::Int(0)));
    }

    #[test]
    fn sum_over_empty_group_is_null_globally() {
        let q = CqBuilder::new()
            .atom_vars("r", &["X"])
            .out_agg(AggFunc::Sum, Some(ScalarExpr::Var("X".into())), "s")
            .build();
        let a = answer(&["X"], vec![]);
        let mut budget = Budget::unlimited();
        let out = finalize(&a, &q, &mut budget).unwrap();
        assert_eq!(out.value(0, "s"), Some(&Value::Null));
    }

    #[test]
    fn min_max_avg() {
        let q = CqBuilder::new()
            .atom_vars("r", &["X"])
            .out_agg(AggFunc::Min, Some(ScalarExpr::Var("X".into())), "lo")
            .out_agg(AggFunc::Max, Some(ScalarExpr::Var("X".into())), "hi")
            .out_agg(AggFunc::Avg, Some(ScalarExpr::Var("X".into())), "avg")
            .build();
        let a = answer(
            &["X"],
            vec![
                vec![Value::Int(3)],
                vec![Value::Int(1)],
                vec![Value::Int(2)],
            ],
        );
        let mut budget = Budget::unlimited();
        let out = finalize(&a, &q, &mut budget).unwrap();
        assert_eq!(out.value(0, "lo"), Some(&Value::Int(1)));
        assert_eq!(out.value(0, "hi"), Some(&Value::Int(3)));
        assert_eq!(out.value(0, "avg"), Some(&Value::Float(2.0)));
    }

    #[test]
    fn hidden_rowids_are_dropped_but_preserve_multiplicity() {
        // Two answer rows differ only in the hidden rowid: the sum must see
        // both.
        let q = CqBuilder::new()
            .atom_vars("r", &["X"])
            .out_agg(AggFunc::Sum, Some(ScalarExpr::Var("X".into())), "s")
            .out_var("__rid_r") // hidden multiplicity guard
            .build();
        let a = answer(
            &["X", "__rid_r"],
            vec![
                vec![Value::Int(5), Value::Int(0)],
                vec![Value::Int(5), Value::Int(1)],
            ],
        );
        let mut budget = Budget::unlimited();
        let out = finalize(&a, &q, &mut budget).unwrap();
        assert_eq!(out.cols(), &["s".to_string()]);
        assert_eq!(out.value(0, "s"), Some(&Value::Int(10)));
    }

    #[test]
    fn ungrouped_output_variable_is_an_error() {
        let q = CqBuilder::new()
            .atom_vars("r", &["G", "X"])
            .out_var("G")
            .out_agg(AggFunc::Sum, Some(ScalarExpr::Var("X".into())), "s")
            .build(); // no GROUP BY G
        let a = answer(&["G", "X"], vec![vec![Value::Int(1), Value::Int(1)]]);
        let mut budget = Budget::unlimited();
        assert!(finalize(&a, &q, &mut budget).is_err());
    }

    #[test]
    fn order_by_applies_to_output() {
        let q = CqBuilder::new()
            .atom_vars("r", &["G", "X"])
            .out_var("G")
            .out_agg(AggFunc::Sum, Some(ScalarExpr::Var("X".into())), "total")
            .group("G")
            .order("total", SortDir::Desc)
            .build();
        let a = answer(
            &["G", "X"],
            vec![
                vec![Value::str("a"), Value::Int(1)],
                vec![Value::str("b"), Value::Int(5)],
            ],
        );
        let mut budget = Budget::unlimited();
        let out = finalize(&a, &q, &mut budget).unwrap();
        assert_eq!(out.value(0, "G"), Some(&Value::str("b")));
    }

    #[test]
    fn having_filters_groups() {
        let q = CqBuilder::new()
            .atom_vars("r", &["G", "X"])
            .out_var("G")
            .out_agg(AggFunc::Sum, Some(ScalarExpr::Var("X".into())), "total")
            .group("G")
            .having("total", htqo_cq::CmpOp::Ge, htqo_cq::Literal::Int(4))
            .build();
        let a = answer(
            &["G", "X"],
            vec![
                vec![Value::str("a"), Value::Int(1)],
                vec![Value::str("a"), Value::Int(2)],
                vec![Value::str("b"), Value::Int(5)],
            ],
        );
        let mut budget = Budget::unlimited();
        let out = finalize(&a, &q, &mut budget).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.value(0, "G"), Some(&Value::str("b")));
        // Unknown HAVING label surfaces as an error (guarded upstream by
        // the isolator, but the engine stays defensive).
        let bad = CqBuilder::new()
            .atom_vars("r", &["G"])
            .out_var("G")
            .group("G")
            .having("zz", htqo_cq::CmpOp::Eq, htqo_cq::Literal::Int(1))
            .build();
        assert!(finalize(&a, &bad, &mut budget).is_err());
    }

    #[test]
    fn limit_truncates_after_sort() {
        let q = CqBuilder::new()
            .atom_vars("r", &["X"])
            .out_var("X")
            .order("X", SortDir::Desc)
            .limit(2)
            .build();
        let a = answer(
            &["X"],
            vec![
                vec![Value::Int(1)],
                vec![Value::Int(3)],
                vec![Value::Int(2)],
            ],
        );
        let mut budget = Budget::unlimited();
        let out = finalize(&a, &q, &mut budget).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out.value(0, "X"), Some(&Value::Int(3)));
        assert_eq!(out.value(1, "X"), Some(&Value::Int(2)));
    }

    /// The columnar front agrees with the row front — answers and budget
    /// charges — across the aggregate, projection, HAVING and ORDER BY
    /// paths.
    #[test]
    fn finalize_c_matches_row_finalize() {
        let queries = vec![
            CqBuilder::new()
                .atom_vars("r", &["G", "X"])
                .out_var("G")
                .out_agg(AggFunc::Sum, Some(ScalarExpr::Var("X".into())), "total")
                .group("G")
                .order("total", SortDir::Desc)
                .build(),
            CqBuilder::new()
                .atom_vars("r", &["G", "X"])
                .out_var("G")
                .out_agg(AggFunc::Count, None, "n")
                .out_agg(AggFunc::Avg, Some(ScalarExpr::Var("X".into())), "avg")
                .group("G")
                .having("n", htqo_cq::CmpOp::Ge, htqo_cq::Literal::Int(2))
                .build(),
            CqBuilder::new()
                .atom_vars("r", &["G", "X"])
                .out_var("G")
                .out_var("X")
                .order("X", SortDir::Asc)
                .limit(2)
                .build(),
        ];
        let a = answer(
            &["G", "X"],
            vec![
                vec![Value::str("a"), Value::Int(1)],
                vec![Value::str("a"), Value::Int(2)],
                vec![Value::str("b"), Value::Int(5)],
                vec![Value::Null, Value::Int(7)],
            ],
        );
        let ca = crate::crel::CRel::from_vrel(&a);
        for q in &queries {
            let mut b1 = Budget::unlimited();
            let mut b2 = Budget::unlimited();
            let row = finalize(&a, q, &mut b1).unwrap();
            let col = finalize_c(&ca, q, &mut b2).unwrap();
            assert_eq!(row, col);
            assert_eq!(b1.charged(), b2.charged());
        }
    }

    #[test]
    fn finalize_c_empty_global_aggregate() {
        let q = CqBuilder::new()
            .atom_vars("r", &["X"])
            .out_agg(AggFunc::Count, None, "n")
            .build();
        let ca = crate::crel::CRel::empty(vec!["X".into()]);
        let mut budget = Budget::unlimited();
        let out = finalize_c(&ca, &q, &mut budget).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.value(0, "n"), Some(&Value::Int(0)));
    }

    #[test]
    fn no_aggregates_projects_distinct() {
        let q = CqBuilder::new()
            .atom_vars("r", &["X", "Y"])
            .out_var("X")
            .build();
        let a = answer(
            &["X", "Y"],
            vec![
                vec![Value::Int(1), Value::Int(10)],
                vec![Value::Int(1), Value::Int(20)],
            ],
        );
        let mut budget = Budget::unlimited();
        let out = finalize(&a, &q, &mut budget).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.cols(), &["X".to_string()]);
    }
}
