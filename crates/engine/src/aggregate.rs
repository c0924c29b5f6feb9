//! Final aggregation (step (4) of the paper's pipeline): given the answer
//! of `CQ(Q)` over `out(Q)`, compute GROUP BY groups, aggregate
//! functions, final projection (dropping hidden rowid guards) and ORDER
//! BY. The grouping and projection front runs column at a time over a
//! [`CRel`] ([`finalize_c`]); the post-aggregation result is a
//! [`VRelation`].

use crate::cops;
use crate::crel::CRel;
use crate::dict;
use crate::error::{Budget, EvalError, SpillMode};
#[cfg(test)]
use crate::expr::eval_scalar;
use crate::expr::{eval_scalar_rows, RowError};
use crate::fsum::FloatSum;
use crate::hash::FxHashMap;
use crate::spill::{self, SpillDir, SpillFile, MAX_SPILL_LEVEL};
use crate::value::{row_heap_bytes, Row, Value};
use crate::vrel::VRelation;
use htqo_cq::isolator::is_hidden_label;
use htqo_cq::{AggFunc, ConjunctiveQuery, OutputItem, SortDir};

/// Visible output items of `q` and their (uniquified) labels.
fn visible_output(q: &ConjunctiveQuery) -> (Vec<&OutputItem>, Vec<String>) {
    let visible: Vec<&OutputItem> = q
        .output
        .iter()
        .filter(|o| !is_hidden_label(o.label()))
        .collect();
    // SQL allows duplicate output column names (`SELECT a.x, b.x`); our
    // relations do not, so repeated labels get a numeric suffix.
    let labels = uniquify(visible.iter().map(|o| o.label()));
    (visible, labels)
}

/// Visible head variables in SELECT order (errors on aggregates — callers
/// check `q.has_aggregates()` first).
fn head_vars<'q>(visible: &[&'q OutputItem]) -> Vec<&'q str> {
    visible
        .iter()
        .map(|o| match o {
            OutputItem::Var { var, .. } => var.as_str(),
            OutputItem::Aggregate { .. } => unreachable!("filtered above"),
        })
        .collect()
}

/// [`finalize_c`] over an answer held in rows: the answer is encoded into
/// columns once and finalized there.
pub fn finalize(
    answer: &VRelation,
    q: &ConjunctiveQuery,
    budget: &mut Budget,
) -> Result<VRelation, EvalError> {
    finalize_c(&CRel::from_vrel(answer), q, budget)
}

/// Computes the final output of `q` from the answer relation of `CQ(Q)`.
///
/// `answer` must contain every variable of `out(Q)` as a column (hidden
/// rowid variables included); its rows must be distinct (a debug build
/// checks that of a plain answer, whose projection relies on it). The
/// grouping/projection front runs column-at-a-time (vectorized group-key
/// hashing, gather-based layout), then the small post-aggregation result
/// flows through the HAVING / ORDER BY / LIMIT tail.
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
        // No aggregates: project the answer onto the distinct visible head
        // variables (set semantics, matching the CQ answer definition),
        // then lay the columns out in SELECT order (a variable may be
        // selected more than once: a column clone, not a per-row copy).
        // The answer's rows are distinct already, so a projection that
        // keeps every column only permutes them and needs no dedup.
        debug_assert!(rows_distinct(answer), "finalize_c: answer rows repeat");
        let vars = head_vars(&visible);
        let distinct_vars: Vec<&str> = (vars.iter().enumerate())
            .filter(|&(i, v)| !vars[..i].contains(v))
            .map(|(_, v)| *v)
            .collect();
        let dedup = distinct_vars.len() < answer.cols().len();
        let projected = cops::project(answer, &distinct_vars, dedup, budget)?;
        let idx: Vec<usize> = vars
            .iter()
            .map(|v| projected.col_index(v).expect("just projected"))
            .collect();
        VRelation::from_rows(labels, projected.rows_of(&idx))
    };
    finalize_tail(result, q, budget)
}

/// [`finalize_c`] of an aggregate query over an answer whose row `i`
/// stands for `weights[i] ≥ 1` identical rows — the factorized cover's
/// root, weighted by its subtree answer counts. Gives the groups, values,
/// charges and errors of [`finalize_c`] over the answer with each row
/// repeated, or `None` where a weight cannot be applied exactly
/// ([`FloatSum::add_times`]); the caller then materializes the repeated
/// rows instead. Never spills: a denied reservation is
/// [`EvalError::MemoryExceeded`]. The weights must sum to at most
/// `u64::MAX` (a cover checks its total), so no count overflows.
pub(crate) fn finalize_weighted(
    answer: &CRel,
    weights: &[u64],
    q: &ConjunctiveQuery,
    budget: &mut Budget,
) -> Result<Option<VRelation>, EvalError> {
    crate::fail_point!("aggregate::finalize");
    let (visible, labels) = visible_output(q);
    let group_idx = group_layout(answer.cols(), q, &visible)?;
    let grouped = aggregate_c_mem(
        answer,
        Some(weights),
        &group_idx,
        q,
        &visible,
        &labels,
        budget,
    );
    match grouped {
        Ok(result) => finalize_tail(result, q, budget).map(Some),
        Err(EvalError::Internal(why)) if why == INEXACT_SUM => Ok(None),
        Err(e) => Err(e),
    }
}

/// The error a float `SUM`/`AVG` raises where [`FloatSum::add_times`]
/// refuses: under a weight above 1, the weighted entry's cue to
/// materialize; unweighted, an exact sum past 2¹²⁷ units, which takes
/// more than 2³² rows.
const INEXACT_SUM: &str = "a float sum cannot take this value exactly";

/// The post-aggregation tail: HAVING, ORDER BY, LIMIT.
fn finalize_tail(
    result: VRelation,
    q: &ConjunctiveQuery,
    budget: &mut Budget,
) -> Result<VRelation, EvalError> {
    // HAVING over output labels (post-aggregation row filter).
    let result = if q.having.is_empty() {
        result
    } else {
        let idx: Vec<(usize, htqo_cq::CmpOp, Value)> = q
            .having
            .iter()
            .map(|(label, op, lit)| {
                let i = result
                    .col_index(label)
                    .ok_or_else(|| EvalError::UnknownVariable(label.clone()))?;
                Ok((i, *op, Value::from(lit)))
            })
            .collect::<Result<_, EvalError>>()?;
        select_rows(
            &result,
            |row| {
                idx.iter()
                    .all(|(i, op, v)| crate::expr::apply_cmp(*op, &row[*i], v))
            },
            budget,
        )?
    };

    // ORDER BY over output labels, ties broken on the whole row, then
    // LIMIT. Groups are put in that order without ORDER BY too, so every
    // path — the cover, the materialized join, every planner — yields one
    // order; a plain projection keeps the order its path produced, and a
    // LIMIT without ORDER BY truncates it.
    let result = if q.order_by.is_empty() && !q.has_aggregates() {
        result
    } else {
        let keys: Vec<(String, bool)> = q
            .order_by
            .iter()
            .map(|(label, dir)| (label.clone(), *dir == SortDir::Desc))
            .collect();
        sort_by(result, &keys)?
    };
    Ok(match q.limit {
        Some(n) if n < result.len() => {
            let cols = result.cols().to_vec();
            let mut rows = result.into_rows();
            rows.truncate(n);
            VRelation::from_rows(cols, rows)
        }
        _ => result,
    })
}

/// True if no row of `a` repeats — [`finalize_c`]'s precondition. The
/// rows are sorted by key hash and each is compared with the rows of
/// equal hash before it; no fail point or budget is involved.
fn rows_distinct(a: &CRel) -> bool {
    let all: Vec<usize> = (0..a.cols().len()).collect();
    let reader = dict::reader();
    let hashes = cops::key_hashes(a, &all, &reader);
    let mut order: Vec<usize> = (0..a.len()).collect();
    order.sort_unstable_by_key(|&i| hashes[i]);
    order.chunk_by(|&i, &j| hashes[i] == hashes[j]).all(|run| {
        (0..run.len()).all(|k| {
            let i = run[k];
            (run[..k].iter()).all(|&j| !cops::rows_key_eq(a, i, a, j, &all, &all, &reader))
        })
    })
}

/// Keeps the rows satisfying `pred`, charging each survivor.
fn select_rows(
    a: &VRelation,
    pred: impl Fn(&Row) -> bool,
    budget: &mut Budget,
) -> Result<VRelation, EvalError> {
    let mut out = VRelation::empty(a.cols().to_vec());
    let row_bytes = row_heap_bytes(a.cols().len());
    for row in a.rows() {
        if pred(row) {
            budget.charge(1)?;
            budget.charge_bytes(row_bytes)?;
            out.push(row.clone());
        }
    }
    Ok(out)
}

/// Sorts rows by the given `(column, descending)` keys, then by the whole
/// row, in [`Value`]'s total order (stable: rows equal in it keep their
/// order).
fn sort_by(a: VRelation, keys: &[(String, bool)]) -> Result<VRelation, EvalError> {
    let idx: Vec<(usize, bool)> = keys
        .iter()
        .map(|(v, desc)| {
            a.col_index(v)
                .map(|i| (i, *desc))
                .ok_or_else(|| EvalError::UnknownVariable(v.clone()))
        })
        .collect::<Result<_, _>>()?;
    let cols = a.cols().to_vec();
    let mut rows = a.into_rows();
    rows.sort_by(|x, y| {
        for &(i, desc) in &idx {
            let ord = x[i].cmp(&y[i]);
            if ord != std::cmp::Ordering::Equal {
                return if desc { ord.reverse() } else { ord };
            }
        }
        x.cmp(y)
    });
    Ok(VRelation::from_rows(cols, rows))
}

/// Appends `_2`, `_3`, … to repeated labels.
fn uniquify<'l>(labels: impl ExactSizeIterator<Item = &'l str> + Clone) -> Vec<String> {
    let mut out = Vec::with_capacity(labels.len());
    for (i, l) in labels.clone().enumerate() {
        match labels.clone().take(i).filter(|&e| e == l).count() {
            0 => out.push(l.to_string()),
            n => out.push(format!("{l}_{}", n + 1)),
        }
    }
    out
}

/// Resolves the GROUP BY column positions and validates that every
/// non-aggregate visible item is a grouping variable.
fn group_layout<S: AsRef<str>>(
    cols: &[S],
    q: &ConjunctiveQuery,
    visible: &[&OutputItem],
) -> Result<Vec<usize>, EvalError> {
    let group_idx: Vec<usize> = q
        .group_by
        .iter()
        .map(|v| {
            cols.iter()
                .position(|c| c.as_ref() == v)
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
fn group_state_bytes(key_width: usize, n_items: usize) -> u64 {
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

/// Row-at-a-time aggregation, the reference the columnar core is tested
/// against. Group state is charged to the byte pool as groups appear and
/// released when the function returns; the (usually much smaller) output
/// rows are charged on success. A denied group reservation surfaces as
/// [`EvalError::MemoryExceeded`].
#[cfg(test)]
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

#[cfg(test)]
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
    let mut groups: std::collections::HashMap<Row, Vec<Accumulator>> = Default::default();
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
            acc.feed_row(item, &cols, row)?;
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

/// Spilled aggregation driver: the answer is hash-partitioned by its
/// group key into spill files ([`spill::partition`]; a group lives in
/// exactly one partition, so no cross-partition merge is ever needed),
/// then each partition is aggregated by the in-memory core
/// ([`aggregate_c_mem`]), its load reserved — a partition whose load or
/// group state is denied is split one level deeper with a re-salted
/// partition function, in its place. At [`MAX_SPILL_LEVEL`] the denial
/// surfaces as a clean `MemoryExceeded` (one pathological group key can
/// defeat any amount of partitioning). Float `SUM`/`AVG` depend only on
/// the multiset of a group's values ([`FloatSum`]), so they match the
/// in-memory path bit for bit whatever order the partitions take.
fn aggregate_spilled(
    answer: &CRel,
    group_idx: &[usize],
    q: &ConjunctiveQuery,
    visible: &[&OutputItem],
    labels: &[String],
    budget: &mut Budget,
) -> Result<VRelation, EvalError> {
    let stats = budget.spill_stats();
    let mut dir = SpillDir::create(budget.spill_dir())?;
    let mut out = VRelation::empty(labels.to_vec());
    // Partitions left, with their levels, the next one last.
    let parts = spill::partition(&dir, "g", answer, group_idx, 0, &stats)?;
    let mut todo: Vec<(SpillFile, u32)> = parts.into_iter().rev().map(|f| (f, 0)).collect();
    while let Some((file, level)) = todo.pop() {
        if file.rows == 0 {
            continue;
        }
        if budget.try_reserve_bytes(file.bytes) {
            let r = spill::load(&file, answer).and_then(|part| {
                aggregate_c_mem(&part, None, group_idx, q, visible, labels, budget)
            });
            budget.uncharge_bytes(file.bytes);
            match r {
                Ok(part) => {
                    part.into_rows().into_iter().for_each(|row| out.push(row));
                    continue;
                }
                Err(EvalError::MemoryExceeded { .. }) if level < MAX_SPILL_LEVEL => {}
                Err(e) => return Err(e),
            }
        } else if level >= MAX_SPILL_LEVEL {
            return Err(group_state_exceeded(budget, file.bytes));
        }
        let parts = spill::repartition(&dir, "g", &file, answer, group_idx, level + 1, &stats)?;
        todo.extend(parts.into_iter().rev().map(|f| (f, level + 1)));
    }
    dir.cleanup()?;
    Ok(out)
}

/// Rows whose expression values [`aggregate_c`] holds at a time: enough
/// for column-at-a-time loops, few enough that the buffers stay in cache
/// and are reused from block to block.
const EVAL_BLOCK: usize = 1024;

/// Columnar grouping: group identity is decided by one vectorized
/// key-hash pass over the GROUP BY columns plus typed cell verification —
/// no boxed `Row` keys are built for the hash map. Each aggregate's scalar
/// expression is evaluated once over the answer, a block of rows at a
/// time, reading only the columns it names ([`eval_scalar_rows`]), and
/// its values are fed in row order; no row is materialized.
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
    let spill =
        |budget: &mut Budget| aggregate_spilled(answer, &group_idx, q, visible, labels, budget);
    if spillable && budget.spill_mode() == SpillMode::Force {
        return spill(budget);
    }
    match aggregate_c_mem(answer, None, &group_idx, q, visible, labels, budget) {
        Err(EvalError::MemoryExceeded { .. }) if spillable => spill(budget),
        r => r,
    }
}

/// In-memory columnar aggregation core: group state is charged to the
/// byte pool as groups appear and released when the function returns,
/// the hash array is reserved up front, output rows are charged on
/// success. A denied reservation is [`EvalError::MemoryExceeded`] — the
/// spill driver's cue to split the partition further. Row `i` counts
/// `weights[i]` times (once without weights).
fn aggregate_c_mem(
    answer: &CRel,
    weights: Option<&[u64]>,
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
    let result = aggregate_c_inner(
        answer,
        weights,
        group_idx,
        q,
        visible,
        labels,
        budget,
        &mut accrued,
    );
    budget.uncharge_bytes(hash_bytes + accrued);
    let out = result?;
    budget.charge_bytes(out.len() as u64 * row_heap_bytes(out.cols().len()))?;
    Ok(out)
}

#[allow(clippy::too_many_arguments)]
fn aggregate_c_inner(
    answer: &CRel,
    weights: Option<&[u64]>,
    group_idx: &[usize],
    q: &ConjunctiveQuery,
    visible: &[&OutputItem],
    labels: &[String],
    budget: &mut Budget,
    accrued: &mut u64,
) -> Result<VRelation, EvalError> {
    let group_bytes = group_state_bytes(group_idx.len(), visible.len());
    let reader = dict::reader();
    let hashes = cops::key_hashes(answer, group_idx, &reader);
    // hash → candidate group ids; groups remember their first-seen row.
    let mut buckets: FxHashMap<u64, Vec<u32>> = FxHashMap::default();
    let mut first_row: Vec<u32> = Vec::new();
    let mut accs: Vec<Vec<Accumulator>> = Vec::new();
    // Per output item, its expression's values over the current block of
    // rows and the row where its evaluation fails, if it does.
    let mut values: Vec<(Vec<Value>, Option<RowError>)> =
        visible.iter().map(|_| (Vec::new(), None)).collect();
    let mut spare = Vec::new();
    for (i, &h) in hashes.iter().enumerate() {
        if i % EVAL_BLOCK == 0 {
            let rows = i..hashes.len().min(i + EVAL_BLOCK);
            for (item, (cells, err)) in visible.iter().zip(&mut values) {
                if let OutputItem::Aggregate { expr: Some(e), .. } = item {
                    *err = eval_scalar_rows(e, answer, rows.clone(), &reader, cells, &mut spare);
                }
            }
        }
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
        let m = weights.map_or(1, |w| w[i]);
        for ((acc, item), (cells, err)) in accs[gid].iter_mut().zip(visible).zip(&mut values) {
            let value = match item {
                OutputItem::Var { .. } => continue,
                OutputItem::Aggregate { expr: None, .. } => Value::Int(1), // COUNT(*)
                OutputItem::Aggregate { expr: Some(_), .. } => {
                    if err.as_ref().is_some_and(|(row, _)| *row == i) {
                        return Err(err.take().expect("just matched").1);
                    }
                    std::mem::replace(&mut cells[i % EVAL_BLOCK], Value::Null)
                }
            };
            acc.feed(value, m)?;
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

/// Streaming accumulator for one output item.
enum Accumulator {
    /// Placeholder for plain grouping variables.
    Group,
    Sum {
        int: i64,
        float: FloatSum,
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
        sum: FloatSum,
        n: u64,
    },
}

impl Accumulator {
    fn for_item(item: &OutputItem) -> Accumulator {
        match item {
            OutputItem::Var { .. } => Accumulator::Group,
            OutputItem::Aggregate { func, .. } => match func {
                AggFunc::Sum => Accumulator::Sum {
                    int: 0,
                    float: FloatSum::default(),
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
                AggFunc::Avg => Accumulator::Avg {
                    sum: FloatSum::default(),
                    n: 0,
                },
            },
        }
    }

    /// Feeds one row (the row reference's per-row step).
    #[cfg(test)]
    fn feed_row(&mut self, item: &OutputItem, cols: &[String], row: &Row) -> Result<(), EvalError> {
        let OutputItem::Aggregate { expr, .. } = item else {
            return Ok(());
        };
        let value = match expr {
            Some(e) => eval_scalar(e, cols, row)?,
            None => Value::Int(1), // COUNT(*): any non-null marker
        };
        self.feed(value, 1)
    }

    /// Feeds `m` rows holding `value` of the aggregated expression at once:
    /// the state `m` single feeds reach. A count adds `m`, an integer sum
    /// adds `value · m` (wrapping, as `m` wrapping adds do), MIN/MAX see
    /// the value once, float sums take [`FloatSum::add_times`]; where that
    /// refuses, the error is [`INEXACT_SUM`].
    fn feed(&mut self, value: Value, m: u64) -> Result<(), EvalError> {
        match self {
            Accumulator::Group => {}
            Accumulator::Count { n } => {
                if !value.is_null() {
                    *n += m;
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
                    *int = int.wrapping_add(i.wrapping_mul(m as i64));
                    *n += m;
                }
                Value::Float(x) => {
                    if !float.add_times(x, m) {
                        return Err(EvalError::Internal(INEXACT_SUM.into()));
                    }
                    *any_float = true;
                    *n += m;
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
                    if !sum.add_times(x, m) {
                        return Err(EvalError::Internal(INEXACT_SUM.into()));
                    }
                    *n += m;
                } else if !value.is_null() {
                    return Err(EvalError::Internal("AVG over non-numeric value".into()));
                }
            }
        }
        Ok(())
    }

    fn finish(&self) -> Value {
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
                    Value::Float(float.total() + *int as f64)
                } else {
                    Value::Int(*int)
                }
            }
            Accumulator::MinMax { best, .. } => best.clone().unwrap_or(Value::Null),
            Accumulator::Avg { sum, n } => {
                if *n == 0 {
                    Value::Null
                } else {
                    Value::Float(sum.total() / *n as f64)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crel::Name;
    use htqo_cq::{AggFunc, CqBuilder, ScalarExpr};

    fn answer(cols: &[&str], rows: Vec<Vec<Value>>) -> VRelation {
        VRelation::from_rows(
            cols.iter().map(|c| c.to_string()).collect(),
            rows.into_iter().map(|r| r.into_boxed_slice()).collect(),
        )
    }

    /// The row-at-a-time front the columnar one is checked against: the
    /// row aggregation core (each expression evaluated per row by
    /// `eval_scalar`), or a first-occurrence distinct projection charging
    /// one tuple per kept row; then the shared tail.
    fn row_finalize(
        a: &VRelation,
        q: &ConjunctiveQuery,
        budget: &mut Budget,
    ) -> Result<VRelation, EvalError> {
        let (visible, labels) = visible_output(q);
        let result = if q.has_aggregates() {
            let group_idx = group_layout(a.cols(), q, &visible)?;
            aggregate_rows(a, &group_idx, q, &visible, &labels, budget)?
        } else {
            let idx: Vec<usize> = (head_vars(&visible).iter())
                .map(|v| {
                    a.col_index(v)
                        .ok_or(EvalError::UnknownVariable(v.to_string()))
                })
                .collect::<Result<_, _>>()?;
            let mut out = VRelation::empty(labels);
            for row in a.rows() {
                let row: Row = idx.iter().map(|&i| row[i].clone()).collect();
                if !out.rows().contains(&row) {
                    budget.charge(1)?;
                    out.push(row);
                }
            }
            out
        };
        finalize_tail(result, q, budget)
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

    /// ORDER BY ties are broken on the whole output row, and LIMIT keeps
    /// a prefix of that order: nothing under `LIMIT 0`, all but the last
    /// row under `LIMIT n−1`, every row from `LIMIT n` on. The charges do
    /// not depend on the limit.
    #[test]
    fn order_by_ties_break_on_the_whole_row_under_limits() {
        let rows = [[2, 7], [1, 9], [2, 3], [1, 4], [2, 5]];
        let a = answer(
            &["G", "X"],
            (rows.iter())
                .map(|r| r.iter().map(|&v| Value::Int(v)).collect())
                .collect(),
        );
        let query = |limit: Option<usize>| {
            let b = CqBuilder::new()
                .atom_vars("r", &["G", "X"])
                .out_var("X")
                .out_var("G")
                .order("G", SortDir::Desc);
            match limit {
                Some(n) => b.limit(n),
                None => b,
            }
            .build()
        };
        let cells =
            |r: &VRelation| -> Vec<Vec<Value>> { r.rows().iter().map(|r| r.to_vec()).collect() };
        let int = |v: &[[i64; 2]]| -> Vec<Vec<Value>> {
            v.iter()
                .map(|r| r.iter().map(|&x| Value::Int(x)).collect())
                .collect()
        };
        // `(X, G)` rows: `G` descending, ties on `X` then `G` ascending.
        let want = int(&[[3, 2], [5, 2], [7, 2], [4, 1], [9, 1]]);
        let mut unlimited = Budget::unlimited();
        let all = finalize(&a, &query(None), &mut unlimited).unwrap();
        assert_eq!(cells(&all), want);
        let n = rows.len();
        for limit in [0, n - 1, n, n + 3] {
            let mut budget = Budget::unlimited();
            let out = finalize(&a, &query(Some(limit)), &mut budget).unwrap();
            assert_eq!(out.cols(), all.cols());
            assert_eq!(cells(&out), want[..limit.min(n)], "LIMIT {limit}");
            assert_eq!(budget.charged(), unlimited.charged(), "LIMIT {limit}");
        }
    }

    /// The columnar front agrees with the row-at-a-time reference —
    /// answers and budget charges — across the aggregate, projection,
    /// HAVING and ORDER BY paths.
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
            let row = row_finalize(&a, q, &mut b1).unwrap();
            let col = finalize_c(&ca, q, &mut b2).unwrap();
            assert_eq!(row, col);
            assert_eq!(b1.charged(), b2.charged());
        }
    }

    /// The column-at-a-time expression path feeds what the row path feeds
    /// and fails where it fails: NULL operands, `Int`/`Float` promotion,
    /// `Int` wrapping, `/`, `COUNT(*)`, non-numeric operands (same error,
    /// raised at the same row, after the same charges), an absent variable
    /// — and no error at all on an empty answer.
    #[test]
    fn finalize_c_evaluates_expressions_like_the_row_path() {
        use htqo_cq::{ArithOp, Literal};
        let var = |v: &str| ScalarExpr::Var(v.into());
        let lit = |i: i64| ScalarExpr::Lit(Literal::Int(i));
        let bin = |l, op, r| ScalarExpr::Binary(Box::new(l), op, Box::new(r));
        let a = answer(
            &["G", "X", "F", "S", "D"],
            vec![
                vec![
                    Value::str("a"),
                    Value::Int(i64::MAX),
                    Value::Float(-0.0),
                    Value::Null,
                    Value::Date(3),
                ],
                vec![
                    Value::str("b"),
                    Value::Int(2),
                    Value::Float(f64::NAN),
                    Value::Null,
                    Value::Null,
                ],
                vec![
                    Value::str("a"),
                    Value::Null,
                    Value::Float(1.5),
                    Value::str("s"),
                    Value::Date(4),
                ],
                vec![
                    Value::Null,
                    Value::Int(0),
                    Value::Null,
                    Value::Null,
                    Value::Date(5),
                ],
                vec![
                    Value::str("b"),
                    Value::Int(-7),
                    Value::Float(0.25),
                    Value::str("t"),
                    Value::Null,
                ],
            ],
        );
        let exprs = [
            bin(var("X"), ArithOp::Mul, var("X")),
            bin(var("X"), ArithOp::Add, var("F")),
            bin(var("X"), ArithOp::Div, var("X")),
            bin(lit(1), ArithOp::Sub, bin(var("F"), ArithOp::Mul, lit(3))),
            bin(var("X"), ArithOp::Add, lit(i64::MAX)),
            bin(var("S"), ArithOp::Add, var("X")),
            bin(var("D"), ArithOp::Sub, lit(1)),
            bin(var("X"), ArithOp::Mul, var("ZZ")),
            bin(var("YY"), ArithOp::Add, var("ZZ")),
            var("S"),
            var("D"),
        ];
        let funcs = [
            AggFunc::Sum,
            AggFunc::Count,
            AggFunc::Min,
            AggFunc::Max,
            AggFunc::Avg,
        ];
        let mut queries = Vec::new();
        for (i, e) in exprs.iter().enumerate() {
            for (j, &f) in funcs.iter().enumerate() {
                let grouped = (i + j) % 2 == 0;
                let mut b = CqBuilder::new().atom_vars("r", &["G", "X", "F", "S", "D"]);
                if grouped {
                    b = b.out_var("G").group("G");
                }
                b = b
                    .out_agg(AggFunc::Count, None, "n")
                    .out_agg(f, Some(e.clone()), "v");
                // A second expression that fails on another row.
                b = b.out_agg(
                    AggFunc::Sum,
                    Some(exprs[(i + j) % exprs.len()].clone()),
                    "w",
                );
                queries.push(b.build());
            }
        }
        let ca = CRel::from_vrel(&a);
        // Long enough for several evaluation blocks, with the operands
        // that fail only far into it.
        let long = answer(
            &["G", "X", "F", "S", "D"],
            (0..2_500i64)
                .map(|i| {
                    let only_at = |row, v: Value| if i == row { v } else { Value::Null };
                    vec![
                        Value::str(["a", "b", "c"][i as usize % 3]),
                        Value::Int(i * 7),
                        Value::Float(i as f64 * 0.25),
                        only_at(2_100, Value::str("s")),
                        only_at(1_500, Value::Date(9)),
                    ]
                })
                .collect(),
        );
        let c_long = CRel::from_vrel(&long);
        let empty = answer(&["G", "X", "F", "S", "D"], vec![]);
        let c_empty = CRel::empty(a.cols().iter().map(|c| Name::from(c.as_str())).collect());
        let mut outcomes = [0usize; 2];
        for q in &queries {
            for (rows, cols) in [(&a, &ca), (&long, &c_long), (&empty, &c_empty)] {
                let mut b1 = Budget::unlimited();
                let mut b2 = Budget::unlimited();
                let row = row_finalize(rows, q, &mut b1);
                let col = finalize_c(cols, q, &mut b2);
                outcomes[row.is_ok() as usize] += 1;
                assert_eq!(format!("{row:?}"), format!("{col:?}"), "{:?}", q.output);
                assert_eq!(b1.charged(), b2.charged(), "{:?}", q.output);
                if rows.is_empty() {
                    assert!(col.is_ok(), "an empty answer evaluates nothing");
                }
            }
        }
        assert!(
            outcomes[0] > 20 && outcomes[1] > 20,
            "{outcomes:?} (errors, answers)"
        );

        // Weighted: row `i` stands for `weights[i]` copies. The kernel
        // answers what the row path answers over the copies — the same
        // bits, charges and errors — or refuses, and only where a float
        // it sums or averages repeats outside the exact range.
        let weights = |n: usize| (0..n).map(|i| 1 + (i as u64 * 7) % 3).collect::<Vec<_>>();
        let repeat = |rows: &VRelation, w: &[u64]| {
            let copies = (rows.rows().iter().zip(w))
                .flat_map(|(r, &m)| std::iter::repeat_n(r.to_vec(), m as usize));
            let cols: Vec<&str> = rows.cols().iter().map(|c| c.as_str()).collect();
            answer(&cols, copies.collect())
        };
        let inexact_repeat = |rows: &VRelation, w: &[u64], q: &ConjunctiveQuery| {
            q.output.iter().any(|item| {
                let OutputItem::Aggregate {
                    func: func @ (AggFunc::Sum | AggFunc::Avg),
                    expr: Some(e),
                    ..
                } = item
                else {
                    return false;
                };
                (rows.rows().iter().zip(w)).any(|(row, &m)| {
                    let x = match eval_scalar(e, rows.cols(), row) {
                        Ok(Value::Float(x)) => x,
                        Ok(v) if *func == AggFunc::Avg => v.as_f64().unwrap_or(0.0),
                        _ => 0.0,
                    };
                    !FloatSum::default().add_times(x, m)
                })
            })
        };
        let mut weighted = [0usize; 3];
        for q in &queries {
            for (rows, cols) in [(&a, &ca), (&long, &c_long), (&empty, &c_empty)] {
                let w = weights(rows.len());
                let mut b1 = Budget::unlimited();
                let mut b2 = Budget::unlimited();
                let want = row_finalize(&repeat(rows, &w), q, &mut b1);
                match finalize_weighted(cols, &w, q, &mut b2) {
                    Ok(None) => {
                        assert!(inexact_repeat(rows, &w, q), "{:?}", q.output);
                        weighted[0] += 1;
                    }
                    got => {
                        let got = got.map(|r| r.expect("answered"));
                        weighted[1 + got.is_ok() as usize] += 1;
                        assert_eq!(format!("{want:?}"), format!("{got:?}"), "{:?}", q.output);
                        assert_eq!(b1.charged(), b2.charged(), "{:?}", q.output);
                    }
                }
            }
        }
        assert!(
            weighted.iter().all(|&n| n > 5),
            "{weighted:?} (refusals, errors, answers)"
        );
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

    /// Spilled aggregation — forced, and under a byte cap that makes it
    /// re-partition — answers exactly like the in-memory core: the same
    /// groups, float `SUM`/`AVG` bit for bit, the same tuple charge. Groups span more than one chunk, keys are
    /// `Str` and `Int` with NULLs, and `M` holds `Int`s and `Float`s (a
    /// `Mixed` column, through `finalize`).
    #[test]
    fn spilled_aggregation_equals_in_memory_bit_for_bit() {
        use crate::error::SpillMode;
        let var = |v: &str| Some(ScalarExpr::Var(v.into()));
        let q = CqBuilder::new()
            .atom_vars("r", &["G", "H", "X", "F", "M"])
            .out_var("G")
            .out_var("H")
            .out_agg(AggFunc::Sum, var("F"), "sf")
            .out_agg(AggFunc::Avg, var("F"), "af")
            .out_agg(AggFunc::Sum, var("X"), "sx")
            .out_agg(AggFunc::Sum, var("M"), "sm")
            .out_agg(AggFunc::Count, var("F"), "nf")
            .out_agg(AggFunc::Min, var("F"), "lo")
            .out_agg(AggFunc::Max, var("X"), "hi")
            .group("G")
            .group("H")
            .build();
        let n = 100_000i64;
        let a = answer(
            &["G", "H", "X", "F", "M"],
            (0..n)
                .map(|i| {
                    let null_or = |m: i64, v: Value| if i % m == 0 { Value::Null } else { v };
                    let big = if i % 2 == 0 { 1e15 } else { -1e15 };
                    vec![
                        null_or(17, Value::str(["g0", "g1", "g2"][i as usize % 3])),
                        null_or(19, Value::Int(i % 4)),
                        null_or(23, Value::Int(i * 7919 % 1000)),
                        null_or(13, Value::Float((i * 7919 % 1000) as f64 * 0.1 + big)),
                        match i % 3 {
                            0 => Value::Float(i as f64 * 0.01),
                            _ => Value::Int(i),
                        },
                    ]
                })
                .collect(),
        );
        let ca = CRel::from_vrel(&a);
        assert!(matches!(
            ca.column(4).data(),
            crate::column::ColumnData::Mixed(_)
        ));
        let rows = |r: &VRelation| {
            let mut rows: Vec<String> = (r.rows().iter())
                .map(|row| {
                    let cells = row.iter().map(|v| match v {
                        Value::Float(x) => format!("F{:x}", x.to_bits()),
                        v => format!("{v:?}"),
                    });
                    cells.collect::<Vec<_>>().join("|")
                })
                .collect();
            rows.sort();
            rows
        };
        let mut mem = Budget::unlimited();
        let want = finalize_c(&ca, &q, &mut mem).unwrap();
        assert!(want.len() > 12 && n as usize / want.len() > crate::keyplan::BLOCK);
        let forced = || Budget::unlimited().with_spill_mode(SpillMode::Force);
        let capped = || Budget::unlimited().with_mem_limit(450_000);
        for (budget, via_rows) in [(forced(), false), (forced(), true), (capped(), false)] {
            let mut budget = budget;
            let got = if via_rows {
                finalize(&a, &q, &mut budget)
            } else {
                finalize_c(&ca, &q, &mut budget)
            };
            let got = got.unwrap();
            let parts = budget.spill_stats().partitions();
            assert!(parts >= 8, "{parts} partitions");
            if budget.mem_limit().is_some() {
                assert!(parts > 8, "the cap must re-partition: {parts} partitions");
            }
            assert_eq!(got.cols(), want.cols());
            assert_eq!(rows(&got), rows(&want));
            assert_eq!(budget.charged(), mem.charged());
        }
    }

    /// Float `SUM`/`AVG` over a row-permuted answer give the same bits:
    /// money amounts whose running sums round differently in different
    /// orders, huge values and a NaN that take the side list, and `Int`s
    /// mixed in.
    #[test]
    fn finalize_c_is_bit_identical_over_permuted_rows() {
        let var = |v: &str| Some(ScalarExpr::Var(v.into()));
        let q = CqBuilder::new()
            .atom_vars("r", &["G", "F", "M"])
            .out_var("G")
            .out_agg(AggFunc::Sum, var("F"), "sf")
            .out_agg(AggFunc::Avg, var("F"), "af")
            .out_agg(AggFunc::Sum, var("M"), "sm")
            .group("G")
            .build();
        let n = 5_000usize;
        let row = |i: usize| {
            let f = match i % 97 {
                0 => 1e300 * if i.is_multiple_of(2) { 1.0 } else { -1.0 },
                1 if i.is_multiple_of(3) => f64::NAN,
                _ => (i * 7919 % 100_000) as f64 * 0.01 * 0.93,
            };
            let m = match i % 3 {
                0 => Value::Float(i as f64 * 0.1),
                _ => Value::Int(i as i64),
            };
            vec![Value::Int((i % 7) as i64), Value::Float(f), m]
        };
        let cells = |r: &VRelation| {
            let mut rows: Vec<String> = (r.rows().iter())
                .map(|row| {
                    let cells = row.iter().map(|v| match v {
                        Value::Float(x) => format!("F{:x}", x.to_bits()),
                        v => format!("{v:?}"),
                    });
                    cells.collect::<Vec<_>>().join("|")
                })
                .collect();
            rows.sort();
            rows
        };
        let run = |order: Vec<usize>| {
            let a = answer(&["G", "F", "M"], order.into_iter().map(row).collect());
            cells(&finalize_c(&CRel::from_vrel(&a), &q, &mut Budget::unlimited()).unwrap())
        };
        let want = run((0..n).collect());
        assert_eq!(run((0..n).rev().collect()), want);
        assert_eq!(run((0..n).map(|i| i * 1_543 % n).collect()), want);
        // A plain running sum would not have survived the reversal.
        let fs: Vec<f64> = (0..n)
            .filter(|i| i % 7 == 2)
            .map(|i| row(i)[1].as_f64().unwrap())
            .collect();
        let fs: Vec<f64> = fs.into_iter().filter(|x| x.abs() < 1e300).collect();
        let forward: f64 = fs.iter().sum();
        assert_ne!(forward.to_bits(), fs.iter().rev().sum::<f64>().to_bits());
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

    #[test]
    fn select_rows_keeps_and_charges_survivors() {
        let a = answer(
            &["X"],
            vec![
                vec![Value::Int(1)],
                vec![Value::Int(2)],
                vec![Value::Int(3)],
            ],
        );
        let mut budget = Budget::unlimited();
        let s = select_rows(&a, |r| r[0] >= Value::Int(2), &mut budget).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(budget.charged(), 2);
    }

    #[test]
    fn sort_by_keys() {
        let int_rows = |rows: &[[i64; 2]]| {
            rows.iter()
                .map(|r| r.iter().map(|&i| Value::Int(i)).collect())
                .collect()
        };
        let a = answer(&["x", "y"], int_rows(&[[1, 3], [2, 1], [1, 1]]));
        let keys = [("x".to_string(), false), ("y".to_string(), true)];
        let sorted = sort_by(a.clone(), &keys).unwrap();
        assert_eq!(
            sorted,
            answer(&["x", "y"], int_rows(&[[1, 3], [1, 1], [2, 1]]))
        );
        assert!(sort_by(a, &[("zz".to_string(), false)]).is_err());
    }

    proptest::proptest! {
        /// Sorting preserves the bag of rows, and the result really is
        /// ordered by the total order.
        #[test]
        fn sort_preserves_rows(
            rows in proptest::collection::vec(proptest::collection::vec(0i64..5, 3), 0..25),
        ) {
            let a = answer(
                &["x", "y", "z"],
                rows.into_iter()
                    .map(|r| r.into_iter().map(Value::Int).collect())
                    .collect(),
            );
            let keys: Vec<(String, bool)> = a.cols().iter().map(|c| (c.clone(), false)).collect();
            let sorted = sort_by(a.clone(), &keys).unwrap();
            proptest::prop_assert_eq!(sorted.sorted_rows(), a.sorted_rows());
            for w in sorted.rows().windows(2) {
                proptest::prop_assert!(w[0] <= w[1]);
            }
        }
    }
}
