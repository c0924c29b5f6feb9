//! Final aggregation (step (4) of the paper's pipeline): given the answer
//! of `CQ(Q)` over `out(Q)`, compute GROUP BY groups, aggregate
//! functions, the final projection, HAVING, ORDER BY and LIMIT.
//!
//! One kernel groups and aggregates, `aggregate_c_inner`: [`finalize_c`]
//! runs it over the answer, each row weighted by its count where the
//! answer is counted ([`crate::crel::COUNT`]), and so does every
//! partition of the spilled path. It holds no [`Value`] per row or per
//! group:
//!
//! - each aggregate's expression is evaluated a block of rows at a time
//!   into typed values (`Expr`);
//! - a row's group id comes from `cops::GroupIds`, the table the
//!   distinct and counted projections group by too: a direct table over
//!   its packed key when the GROUP BY columns have a `KeyPlan` whose
//!   range fits the kernel's reservation, and otherwise one
//!   open-addressed table of the groups by key hash, a candidate
//!   verified against the group's first row; groups keep their
//!   first-seen order;
//! - each aggregate keeps one flat vector of typed state indexed by group
//!   id (`SUM` an `i64` and a `FloatSum`, `COUNT` a count, `AVG` a
//!   `FloatSum` and a count, `MIN`/`MAX` the best number, or the row of
//!   the best cell of a column).
//!
//! What it leaves is a column per output item, a cell per group
//! (`Grouped`). The tail applies HAVING and ORDER BY to group ids on
//! those typed cells and builds the output rows once, in order: they are
//! the only `Value`s aggregation makes.

use crate::column::Column;
use crate::cops::{self, GroupIds};
use crate::crel::CRel;
use crate::dict::{self, DictReader};
use crate::error::{Budget, EvalError, SpillMode};
use crate::expr::{cmp_matches, Block, Expr, Num, RowError};
use crate::fsum::FloatSum;
use crate::keyplan;
use crate::spill::{self, SpillDir, SpillFile, MAX_SPILL_LEVEL};
use crate::value::{row_heap_bytes, Value};
use crate::vrel::VRelation;
use htqo_cq::{AggFunc, ConjunctiveQuery, Literal, OutputItem, ScalarExpr, SortDir};
use std::cmp::Ordering;
use std::ops::Range;
use std::sync::Arc;

/// Output items of `q` and their (uniquified) labels.
fn visible_output(q: &ConjunctiveQuery) -> (Vec<&OutputItem>, Vec<String>) {
    let visible: Vec<&OutputItem> = q.output.iter().collect();
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
/// `answer` must contain every variable of `out(Q)` as a column. An
/// aggregate query is grouped by the one kernel (`aggregate_c`) over the
/// answer as a bag: every row once, or, where the answer is counted
/// ([`crate::crel::COUNT`]), row `i` as `count[i]` identical rows — the kernel weights
/// it, and where a float sum cannot take a weight exactly it runs over
/// the rows repeated instead. A plain query's answer must be an
/// uncounted relation with distinct rows (a debug build checks that);
/// it is projected column at a time. Either leaves typed columns, which
/// the HAVING / ORDER BY / LIMIT tail turns into rows.
pub fn finalize_c(
    answer: &CRel,
    q: &ConjunctiveQuery,
    budget: &mut Budget,
) -> Result<VRelation, EvalError> {
    crate::fail_point!("aggregate::finalize");
    let (visible, labels) = visible_output(q);
    let grouped = if q.has_aggregates() {
        let counts = answer.counts().unwrap_or_default();
        // The kernel's counts and sums of weights must not overflow.
        (counts.iter()).try_fold(0u64, |total, &c| {
            total.checked_add(c as u64).ok_or(EvalError::CountOverflow)
        })?;
        match aggregate_c(answer, q, &visible, budget) {
            Err(EvalError::Internal(why)) if why == INEXACT_SUM && !counts.is_empty() => {
                aggregate_c(&repeated(answer, counts, budget)?, q, &visible, budget)?
            }
            grouped => grouped?,
        }
    } else {
        // No aggregates: project the answer onto the distinct visible head
        // variables (set semantics, matching the CQ answer definition),
        // then lay the columns out in SELECT order (a variable may be
        // selected more than once: a shared column, not a per-row copy).
        // The answer's rows are distinct already, so a projection that
        // keeps every column only permutes them and needs no dedup.
        let vars = head_vars(&visible);
        let distinct_vars: Vec<&str> = (vars.iter().enumerate())
            .filter(|&(i, v)| !vars[..i].contains(v))
            .map(|(_, v)| *v)
            .collect();
        let dedup = distinct_vars.len() < answer.cols().len();
        let projected = cops::project(answer, &distinct_vars, dedup, budget)?;
        let cols = (vars.iter())
            .map(|v| {
                let c = projected.col_index(v).expect("just projected");
                OutCol::Col(Arc::clone(&projected.columns()[c]))
            })
            .collect();
        Grouped {
            cols,
            len: projected.len(),
        }
    };
    finalize_tail(grouped, labels, q, budget)
}

/// The uncounted `answer` with row `i` repeated `counts[i]` times, in
/// order: [`finalize_c`]'s way round a weight a float sum cannot take.
/// Its position list and columns are charged to the byte pool; past
/// `u32::MAX` rows it is [`EvalError::MemoryExceeded`] whatever the pool.
fn repeated(answer: &CRel, counts: &[i64], budget: &mut Budget) -> Result<CRel, EvalError> {
    let total: u64 = counts.iter().map(|&c| c as u64).sum();
    let bytes = total.saturating_mul(4 + 8 * answer.cols().len() as u64);
    if total > u64::from(u32::MAX) {
        return Err(group_state_exceeded(budget, bytes));
    }
    budget.charge_bytes(bytes)?;
    let rows: Vec<u32> = (counts.iter().enumerate())
        .flat_map(|(i, &c)| std::iter::repeat_n(i as u32, c as usize))
        .collect();
    let (cols, columns) = (answer.cols().iter().zip(answer.columns()))
        .filter(|(c, _)| ***c != *crate::crel::COUNT)
        .map(|(c, col)| (c.clone(), Arc::new(col.gather(&rows))))
        .unzip();
    Ok(CRel::new(cols, columns, rows.len()))
}

/// The error a float `SUM`/`AVG` raises where [`FloatSum::add_times`]
/// refuses: under a weight above 1, [`finalize_c`]'s cue to repeat the
/// rows instead; unweighted, an exact sum past 2¹²⁷ units, which takes
/// more than 2³² rows.
const INEXACT_SUM: &str = "a float sum cannot take this value exactly";

/// What grouping (or a plain projection) leaves for the tail: a column
/// per visible output item, a cell per group (or per projected row).
struct Grouped {
    cols: Vec<OutCol>,
    len: usize,
}

/// One output column of a [`Grouped`].
enum OutCol {
    /// Typed cells: the group keys and the `MIN`/`MAX` of a column,
    /// gathered at their rows, or a projected column.
    Col(Arc<Column>),
    /// Counts, sums, averages, and the `MIN`/`MAX` of numbers.
    Num(Vec<Num>),
}

impl OutCol {
    /// Cells `x` and `y` in [`Value`]'s total order.
    fn cmp(&self, x: usize, y: usize, reader: &DictReader) -> Ordering {
        match self {
            OutCol::Col(c) => c.cmp_at(x, y, reader),
            OutCol::Num(v) => v[x].value().cmp(&v[y].value()),
        }
    }

    /// [`Value::sql_cmp`] of cell `x` against `v`.
    fn sql_cmp(&self, x: usize, v: &Value, reader: &DictReader) -> Option<Ordering> {
        match self {
            OutCol::Col(c) => c.cmp_value(x, v, reader),
            OutCol::Num(n) => n[x].value().sql_cmp(v),
        }
    }

    /// Cell `x` as an output value.
    fn value(&self, x: usize, reader: &DictReader) -> Value {
        match self {
            OutCol::Col(c) => c.value_with(x, reader),
            OutCol::Num(n) => n[x].value(),
        }
    }
}

impl Grouped {
    /// Appends `other`'s groups: a later partition of the spilled path,
    /// whose columns have the types of this one's (partitions are shaped
    /// like the answer).
    fn append(&mut self, other: Grouped) {
        for (a, b) in self.cols.iter_mut().zip(other.cols) {
            match (a, b) {
                (OutCol::Col(a), OutCol::Col(b)) => Arc::make_mut(a).extend_from(&b),
                (OutCol::Num(a), OutCol::Num(b)) => a.extend(b),
                _ => unreachable!("partitions of one answer group alike"),
            }
        }
        self.len += other.len;
    }
}

/// The post-aggregation tail, over group ids: HAVING (each survivor
/// charged as a row), ORDER BY with ties broken on the whole row, LIMIT;
/// then the output rows, built once, in order. Cells compare as typed
/// cells in [`Value`]'s total order (HAVING: [`Value::sql_cmp`]); rows
/// still equal there are told apart by [`Value::cmp_identity`], so no
/// two groups keep the order they arrived in and every path, spilled or
/// not, keeps the same rows under a LIMIT.
fn finalize_tail(
    grouped: Grouped,
    labels: Vec<String>,
    q: &ConjunctiveQuery,
    budget: &mut Budget,
) -> Result<VRelation, EvalError> {
    let Grouped { cols, len } = grouped;
    let label = |l: &String| {
        (labels.iter().position(|x| x == l)).ok_or_else(|| EvalError::UnknownVariable(l.clone()))
    };
    let reader = dict::reader();
    // The groups in output order; `None` while that is their own order
    // (a plain projection without HAVING or ORDER BY allocates none).
    let mut keep: Option<Vec<u32>> = None;

    // HAVING over output labels (post-aggregation row filter).
    if !q.having.is_empty() {
        let conds = (q.having.iter())
            .map(|(l, op, lit)| Ok((label(l)?, *op, Value::from(lit))))
            .collect::<Result<Vec<_>, EvalError>>()?;
        let row_bytes = row_heap_bytes(labels.len());
        let mut kept = Vec::new();
        for g in 0..len {
            let holds = |&(i, op, ref v): &(usize, _, Value)| {
                cmp_matches(op, cols[i].sql_cmp(g, v, &reader))
            };
            if conds.iter().all(holds) {
                budget.charge(1)?;
                budget.charge_bytes(row_bytes)?;
                kept.push(g as u32);
            }
        }
        keep = Some(kept);
    }

    // ORDER BY over output labels, ties broken on the whole row, then
    // LIMIT. Groups are put in that order without ORDER BY too, so every
    // path — the counted q-HD pass, the materialized join, every planner
    // — yields one order; a plain projection keeps the order its path
    // produced, and a LIMIT without ORDER BY truncates it.
    if !q.order_by.is_empty() || q.has_aggregates() {
        let keys = (q.order_by.iter())
            .map(|(l, dir)| Ok((label(l)?, *dir == SortDir::Desc)))
            .collect::<Result<Vec<_>, EvalError>>()?;
        let keep = keep.get_or_insert_with(|| (0..len as u32).collect());
        let cmp = |&x: &u32, &y: &u32| {
            let (x, y) = (x as usize, y as usize);
            let by_key = keys.iter().map(|&(i, desc)| {
                let ord = cols[i].cmp(x, y, &reader);
                if desc {
                    ord.reverse()
                } else {
                    ord
                }
            });
            let by_row = cols.iter().map(|c| c.cmp(x, y, &reader));
            let by_identity =
                (cols.iter()).map(|c| c.value(x, &reader).cmp_identity(&c.value(y, &reader)));
            (by_key.chain(by_row).chain(by_identity).find(|o| o.is_ne())).unwrap_or(Ordering::Equal)
        };
        // The order is total up to identical rows, so an unstable sort
        // gives the rows a stable one does; under a LIMIT the first `k`
        // groups are selected first and only they are sorted.
        if let Some(k) = q.limit.filter(|&k| k < keep.len()) {
            if k > 0 {
                keep.select_nth_unstable_by(k - 1, cmp);
            }
            keep.truncate(k);
        }
        keep.sort_unstable_by(cmp);
    }
    let limit = q.limit.unwrap_or(usize::MAX);
    let row = |g: usize| cols.iter().map(|c| c.value(g, &reader)).collect();
    let rows = match keep {
        Some(keep) => keep.iter().take(limit).map(|&g| row(g as usize)).collect(),
        None => (0..len).take(limit).map(row).collect(),
    };
    Ok(VRelation::from_rows(labels, rows))
}

/// Renames each repeated label `l` to `l_k`, with `k ≥ 2` the smallest
/// suffix that is neither a label of the list nor given already — so a
/// label the query chose itself is never taken.
fn uniquify<'l>(labels: impl ExactSizeIterator<Item = &'l str> + Clone) -> Vec<String> {
    let mut out: Vec<String> = Vec::with_capacity(labels.len());
    for l in labels.clone() {
        let taken = |c: &str| out.iter().any(|o| o == c);
        if !taken(l) {
            out.push(l.to_string());
            continue;
        }
        let free = (2..)
            .map(|k| format!("{l}_{k}"))
            .find(|c| !taken(c) && labels.clone().all(|e| e != c))
            .expect("some suffix is free");
        out.push(free);
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

/// An output item's share of a group's state in [`group_state_bytes`]:
/// the 80 bytes one boxed per-group accumulator took before the states
/// became flat vectors, kept so that byte limits trip where they did.
const ITEM_STATE_BYTES: u64 = 80;

/// Resident bytes one group costs the governor: its key row, a state per
/// output item, and a map-entry allowance.
fn group_state_bytes(key_width: usize, n_items: usize) -> u64 {
    row_heap_bytes(key_width) + n_items as u64 * ITEM_STATE_BYTES + 48
}

/// A denied group-state reservation as a typed error.
pub(crate) fn group_state_exceeded(budget: &Budget, requested: u64) -> EvalError {
    EvalError::MemoryExceeded {
        requested,
        reserved: budget.mem_used(),
        pool: budget.mem_limit().unwrap_or(0),
    }
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
    budget: &mut Budget,
) -> Result<Grouped, EvalError> {
    let stats = budget.spill_stats();
    let mut dir = SpillDir::create(budget.spill_dir())?;
    let mut out: Option<Grouped> = None;
    // Partitions left, with their levels, the next one last.
    let parts = spill::partition(&dir, "g", answer, group_idx, 0, &stats)?;
    let mut todo: Vec<(SpillFile, u32)> = parts.into_iter().rev().map(|f| (f, 0)).collect();
    while let Some((file, level)) = todo.pop() {
        if file.rows == 0 {
            continue;
        }
        if budget.try_reserve_bytes(file.bytes) {
            let r = spill::load(&file, answer)
                .and_then(|part| aggregate_c_mem(&part, group_idx, q, visible, budget));
            budget.uncharge_bytes(file.bytes);
            match r {
                Ok(part) => {
                    match &mut out {
                        Some(out) => out.append(part),
                        None => out = Some(part),
                    }
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
    // A spilled answer has rows, so some partition has groups.
    Ok(out.expect("a spilled answer is not empty"))
}

/// Columnar grouping and aggregation of an aggregate query: in memory
/// ([`aggregate_c_mem`]), or partitioned by group key through spill files
/// when the group state does not fit ([`aggregate_spilled`]).
fn aggregate_c(
    answer: &CRel,
    q: &ConjunctiveQuery,
    visible: &[&OutputItem],
    budget: &mut Budget,
) -> Result<Grouped, EvalError> {
    let group_idx = group_layout(answer.cols(), q, visible)?;
    let spillable =
        !group_idx.is_empty() && answer.len() > 1 && budget.spill_mode() != SpillMode::Off;
    let spill = |budget: &mut Budget| aggregate_spilled(answer, &group_idx, q, visible, budget);
    if spillable && budget.spill_mode() == SpillMode::Force {
        return spill(budget);
    }
    match aggregate_c_mem(answer, &group_idx, q, visible, budget) {
        Err(EvalError::MemoryExceeded { .. }) if spillable => spill(budget),
        r => r,
    }
}

/// In-memory columnar aggregation core: group state is charged to the
/// byte pool as groups appear and released when the function returns,
/// 8 bytes per answer row are reserved up front (the key hashes, or a
/// direct table that fits in them), output rows are charged on success.
/// A denied reservation is [`EvalError::MemoryExceeded`] — the spill
/// driver's cue to split the partition further. Row `i` counts
/// `count[i]` times where the answer is counted ([`crate::crel::COUNT`]), else once.
fn aggregate_c_mem(
    answer: &CRel,
    group_idx: &[usize],
    q: &ConjunctiveQuery,
    visible: &[&OutputItem],
    budget: &mut Budget,
) -> Result<Grouped, EvalError> {
    let hash_bytes = 8 * answer.len() as u64;
    if !budget.try_reserve_bytes(hash_bytes) {
        return Err(group_state_exceeded(budget, hash_bytes));
    }
    let mut accrued = 0u64;
    let result = aggregate_c_inner(
        answer,
        answer.counts(),
        group_idx,
        q,
        visible,
        hash_bytes,
        budget,
        &mut accrued,
    );
    budget.uncharge_bytes(hash_bytes + accrued);
    let out = result?;
    budget.charge_bytes(out.len as u64 * row_heap_bytes(visible.len()))?;
    Ok(out)
}

/// Rows the kernel evaluates, groups and feeds at a time: enough for
/// typed loops, few enough that the buffers stay in cache and are reused
/// from block to block. A multiple of 64, so a block starts on a null
/// word, and at most a key plan's block.
const EVAL_BLOCK: usize = 1024;
const _: () = assert!(EVAL_BLOCK.is_multiple_of(64) && EVAL_BLOCK <= keyplan::BLOCK);

/// `COUNT(*)`'s input: a value in every row.
static ONE: ScalarExpr = ScalarExpr::Lit(Literal::Int(1));

/// The grouping kernel (see the module docs). Per block of rows: the
/// rows' group ids (new groups opened, not yet charged); each item's
/// expression evaluated and fed, up to its first failing row and no
/// further than an earlier item's; then the block's new groups charged —
/// one tuple and [`group_state_bytes`] each — up to the first failure, in
/// row order. So an error comes at the row, and after the charges, that a
/// row-at-a-time pass gives: a row's group is charged before its items
/// are fed, and the items fail in SELECT order.
#[allow(clippy::too_many_arguments)]
fn aggregate_c_inner(
    answer: &CRel,
    weights: Option<&[i64]>,
    group_idx: &[usize],
    q: &ConjunctiveQuery,
    visible: &[&OutputItem],
    reserved: u64,
    budget: &mut Budget,
    accrued: &mut u64,
) -> Result<Grouped, EvalError> {
    let group_bytes = group_state_bytes(group_idx.len(), visible.len());
    let reader = dict::reader();
    let n = answer.len();
    let block = n.min(EVAL_BLOCK);
    let mut ids = GroupIds::new(answer, group_idx, reserved, &reader);
    let mut items: Vec<Item> = (visible.iter())
        .map(|o| Item::new(o, answer, group_idx, q, block))
        .collect();
    // Each group's first row, in group-id order; room for a block's
    // worth of groups before it grows.
    let mut first_row: Vec<u32> = Vec::with_capacity(block);
    let mut gids = vec![0u32; block];
    for lo in (0..n).step_by(EVAL_BLOCK) {
        let hi = n.min(lo + EVAL_BLOCK);
        let known = first_row.len();
        ids.assign(lo..hi, &mut first_row, &reader, |i, g| {
            gids[i - lo] = g;
            Ok(())
        })?;
        for item in &mut items {
            first_row[known..].iter().for_each(|&r| item.acc.open(r));
        }
        let mut failed: Option<RowError> = None;
        for item in &mut items {
            let end = failed.as_ref().map_or(hi, |f| f.0 + 1);
            if let Some(e) = item.run(lo..end, &gids, weights, &reader) {
                if failed.as_ref().is_none_or(|f| e.0 < f.0) {
                    failed = Some(e);
                }
            }
        }
        let end = failed.as_ref().map_or(hi, |f| f.0 + 1);
        for _ in 0..first_row[known..].partition_point(|&r| (r as usize) < end) {
            if !budget.try_reserve_bytes(group_bytes) {
                return Err(group_state_exceeded(budget, group_bytes));
            }
            *accrued += group_bytes;
            budget.charge(1)?;
        }
        if let Some((_, e)) = failed {
            return Err(e);
        }
    }
    // Global aggregate over empty input still produces one row.
    if first_row.is_empty() && q.group_by.is_empty() {
        let cols = (items.iter())
            .map(|item| OutCol::Num(vec![item.acc.empty()]))
            .collect();
        return Ok(Grouped { cols, len: 1 });
    }
    let len = first_row.len();
    let cols = (items.into_iter())
        .map(|item| item.finish(answer, &first_row))
        .collect();
    Ok(Grouped { cols, len })
}

/// A visible output item: its compiled expression (none for a grouping
/// variable) and its state.
struct Item<'a> {
    expr: Option<Expr<'a>>,
    acc: Acc,
}

/// An output item's state, one slot per group.
enum Acc {
    /// A grouping variable, read from its key column at the group's first
    /// row.
    Key(usize),
    Count(Vec<u64>),
    Sum(Vec<SumState>),
    Avg(Vec<AvgState>),
    /// `MIN`/`MAX` of numbers: the best so far (NULL before any).
    Best {
        min: bool,
        best: Vec<Num>,
    },
    /// `MIN`/`MAX` of a column's cells: the row of the best so far. It
    /// starts at the group's first row — whose cell, if NULL, stays the
    /// best until a value comes — or at a literal's one cell.
    BestRow {
        min: bool,
        literal: bool,
        rows: Vec<u32>,
    },
}

#[derive(Default)]
struct SumState {
    int: i64,
    float: FloatSum,
    any_float: bool,
    n: u64,
}

#[derive(Default)]
struct AvgState {
    sum: FloatSum,
    n: u64,
}

/// True if `ord` (a candidate against the best) makes the candidate the
/// new best.
fn better(ord: Ordering, min: bool) -> bool {
    if min {
        ord.is_lt()
    } else {
        ord.is_gt()
    }
}

fn inexact_sum() -> EvalError {
    EvalError::Internal(INEXACT_SUM.into())
}

impl<'a> Item<'a> {
    fn new(
        item: &'a OutputItem,
        answer: &'a CRel,
        group_idx: &[usize],
        q: &ConjunctiveQuery,
        block: usize,
    ) -> Item<'a> {
        let (func, e) = match item {
            OutputItem::Var { var, .. } => {
                let gpos = q.group_by.iter().position(|g| g == var).expect("validated");
                return Item {
                    expr: None,
                    acc: Acc::Key(group_idx[gpos]),
                };
            }
            OutputItem::Aggregate { func, expr, .. } => (*func, expr.as_ref().unwrap_or(&ONE)),
        };
        let expr = Expr::compile(e, answer, block);
        let acc = match func {
            AggFunc::Count => Acc::Count(Vec::new()),
            AggFunc::Sum => Acc::Sum(Vec::new()),
            AggFunc::Avg => Acc::Avg(Vec::new()),
            AggFunc::Min | AggFunc::Max => {
                let min = func == AggFunc::Min;
                match expr.cells() {
                    Some((_, literal)) => Acc::BestRow {
                        min,
                        literal,
                        rows: Vec::new(),
                    },
                    None => Acc::Best {
                        min,
                        best: Vec::new(),
                    },
                }
            }
        };
        Item {
            expr: Some(expr),
            acc,
        }
    }

    /// Evaluates and feeds rows `rows` (`gids[j]` the group of row
    /// `rows.start + j`); the first row that fails, and its error.
    fn run(
        &mut self,
        rows: Range<usize>,
        gids: &[u32],
        weights: Option<&[i64]>,
        reader: &DictReader,
    ) -> Option<RowError> {
        let expr = self.expr.as_mut()?;
        let (block, err) = expr.eval(rows.clone(), reader);
        let end = err.as_ref().map_or(rows.end, |e| e.0);
        (self
            .acc
            .feed(&block, rows.start..end, gids, weights, reader))
        .or(err)
    }

    /// The item's output column over the groups whose first rows are
    /// `first_row`.
    fn finish(self, answer: &CRel, first_row: &[u32]) -> OutCol {
        match self.acc {
            Acc::Key(c) => OutCol::Col(Arc::new(answer.column(c).gather(first_row))),
            Acc::Count(n) => OutCol::Num(n.into_iter().map(|n| Num::Int(n as i64)).collect()),
            Acc::Sum(s) => OutCol::Num(
                (s.into_iter())
                    .map(|s| match s {
                        SumState { n: 0, .. } => Num::Null,
                        SumState {
                            any_float: true,
                            float,
                            int,
                            ..
                        } => Num::Float(float.total() + int as f64),
                        SumState { int, .. } => Num::Int(int),
                    })
                    .collect(),
            ),
            Acc::Avg(s) => OutCol::Num(
                (s.into_iter())
                    .map(|s| match s.n {
                        0 => Num::Null,
                        n => Num::Float(s.sum.total() / n as f64),
                    })
                    .collect(),
            ),
            Acc::Best { best, .. } => OutCol::Num(best),
            Acc::BestRow { rows, .. } => {
                let (col, _) = (self.expr.as_ref())
                    .and_then(Expr::cells)
                    .expect("a column's cells");
                OutCol::Col(Arc::new(col.gather(&rows)))
            }
        }
    }
}

impl Acc {
    /// Opens the state of a new group whose first row is `first`.
    fn open(&mut self, first: u32) {
        match self {
            Acc::Key(_) => {}
            Acc::Count(n) => n.push(0),
            Acc::Sum(s) => s.push(SumState::default()),
            Acc::Avg(s) => s.push(AvgState::default()),
            Acc::Best { best, .. } => best.push(Num::Null),
            Acc::BestRow { literal, rows, .. } => rows.push(if *literal { 0 } else { first }),
        }
    }

    /// The value of a group that saw no row.
    fn empty(&self) -> Num {
        match self {
            Acc::Count(_) => Num::Int(0),
            _ => Num::Null,
        }
    }

    /// Feeds the cells of `block` for rows `rows` (cell `j` is row
    /// `rows.start + j`, in group `gids[j]`, standing for `weights[row]`
    /// rows): the state that many single feeds reach. A count adds the
    /// weight, an integer sum adds `value · weight` (wrapping, as that
    /// many wrapping adds do), `MIN`/`MAX` see the value once, float sums
    /// take [`FloatSum::add_times`]; where that refuses, the error is
    /// [`INEXACT_SUM`]. The first row that fails, and its error.
    fn feed(
        &mut self,
        block: &Block,
        rows: Range<usize>,
        gids: &[u32],
        weights: Option<&[i64]>,
        reader: &DictReader,
    ) -> Option<RowError> {
        let lo = rows.start;
        let weight = |j: usize| weights.map_or(1, |w| w[lo + j] as u64);
        let cells = 0..rows.len();
        match self {
            Acc::Key(_) => {}
            Acc::Count(n) => {
                for j in cells.filter(|&j| !block.is_null(j)) {
                    n[gids[j] as usize] += weight(j);
                }
            }
            Acc::Sum(s) => {
                for j in cells {
                    let (st, m) = (&mut s[gids[j] as usize], weight(j));
                    match block.num(j) {
                        Ok(Num::Null) => {}
                        Ok(Num::Int(x)) => {
                            st.int = st.int.wrapping_add(x.wrapping_mul(m as i64));
                            st.n += m;
                        }
                        Ok(Num::Float(x)) => {
                            if !st.float.add_times(x, m) {
                                return Some((lo + j, inexact_sum()));
                            }
                            st.any_float = true;
                            st.n += m;
                        }
                        Err(ty) => {
                            let why = format!("SUM over non-numeric value ({ty})");
                            return Some((lo + j, EvalError::Internal(why)));
                        }
                    }
                }
            }
            Acc::Avg(s) => {
                for j in cells {
                    let x = match block.num(j) {
                        Ok(Num::Null) => continue,
                        Ok(Num::Int(x)) => x as f64,
                        Ok(Num::Float(x)) => x,
                        Err(_) => {
                            let why = "AVG over non-numeric value".to_string();
                            return Some((lo + j, EvalError::Internal(why)));
                        }
                    };
                    let (st, m) = (&mut s[gids[j] as usize], weight(j));
                    if !st.sum.add_times(x, m) {
                        return Some((lo + j, inexact_sum()));
                    }
                    st.n += m;
                }
            }
            Acc::Best { min, best } => {
                for j in cells {
                    let x = match block.num(j) {
                        Ok(Num::Null) => continue,
                        Ok(x) => x,
                        Err(_) => unreachable!("a numeric expression yields numbers"),
                    };
                    let b = &mut best[gids[j] as usize];
                    if matches!(b, Num::Null) || better(x.value().cmp(&b.value()), *min) {
                        *b = x;
                    }
                }
            }
            Acc::BestRow {
                min, rows: best, ..
            } => {
                let Block::Cells { col, .. } = block else {
                    unreachable!("a column's cells")
                };
                for j in cells {
                    let i = block.row(j);
                    if col.is_null(i) {
                        continue;
                    }
                    let b = &mut best[gids[j] as usize];
                    if col.is_null(*b as usize) || better(col.cmp_at(i, *b as usize, reader), *min)
                    {
                        *b = i as u32;
                    }
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crel::Name;
    use crate::expr::eval_scalar;
    use crate::value::Row;
    use htqo_cq::CqBuilder;

    fn answer(cols: &[&str], rows: Vec<Vec<Value>>) -> VRelation {
        VRelation::from_rows(
            cols.iter().map(|c| c.to_string()).collect(),
            rows.into_iter().map(|r| r.into_boxed_slice()).collect(),
        )
    }

    /// The row-at-a-time aggregation the kernel is checked against. Group
    /// state is charged to the byte pool as groups appear and released
    /// when the function returns; the output rows are charged on success.
    /// A denied group reservation surfaces as [`EvalError::MemoryExceeded`].
    fn aggregate_rows(
        answer: &VRelation,
        group_idx: &[usize],
        q: &ConjunctiveQuery,
        visible: &[&OutputItem],
        labels: &[String],
        budget: &mut Budget,
    ) -> Result<VRelation, EvalError> {
        let mut accrued = 0u64;
        let result =
            aggregate_rows_inner(answer, group_idx, q, visible, labels, budget, &mut accrued);
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
        let mut groups: std::collections::HashMap<Row, Vec<RowAccumulator>> = Default::default();
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
                    groups.entry(key.clone()).or_insert_with(|| {
                        visible
                            .iter()
                            .map(|o| RowAccumulator::for_item(o))
                            .collect()
                    })
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
                visible
                    .iter()
                    .map(|o| RowAccumulator::for_item(o))
                    .collect(),
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

    /// The reference's accumulator for one output item, fed one `Value`
    /// at a time.
    enum RowAccumulator {
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

    impl RowAccumulator {
        fn for_item(item: &OutputItem) -> RowAccumulator {
            match item {
                OutputItem::Var { .. } => RowAccumulator::Group,
                OutputItem::Aggregate { func, .. } => match func {
                    AggFunc::Sum => RowAccumulator::Sum {
                        int: 0,
                        float: FloatSum::default(),
                        any_float: false,
                        n: 0,
                    },
                    AggFunc::Count => RowAccumulator::Count { n: 0 },
                    AggFunc::Min => RowAccumulator::MinMax {
                        best: None,
                        min: true,
                    },
                    AggFunc::Max => RowAccumulator::MinMax {
                        best: None,
                        min: false,
                    },
                    AggFunc::Avg => RowAccumulator::Avg {
                        sum: FloatSum::default(),
                        n: 0,
                    },
                },
            }
        }

        /// Feeds one row: its value of the aggregated expression.
        fn feed_row(
            &mut self,
            item: &OutputItem,
            cols: &[String],
            row: &Row,
        ) -> Result<(), EvalError> {
            let OutputItem::Aggregate { expr, .. } = item else {
                return Ok(());
            };
            let value = match expr {
                Some(e) => eval_scalar(e, cols, row)?,
                None => Value::Int(1), // COUNT(*): any non-null marker
            };
            match self {
                RowAccumulator::Group => {}
                RowAccumulator::Count { n } => {
                    if !value.is_null() {
                        *n += 1;
                    }
                }
                RowAccumulator::Sum {
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
                        if !float.add_times(x, 1) {
                            return Err(EvalError::Internal(INEXACT_SUM.into()));
                        }
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
                RowAccumulator::MinMax { best, min } => {
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
                RowAccumulator::Avg { sum, n } => {
                    if let Some(x) = value.as_f64() {
                        if !sum.add_times(x, 1) {
                            return Err(EvalError::Internal(INEXACT_SUM.into()));
                        }
                        *n += 1;
                    } else if !value.is_null() {
                        return Err(EvalError::Internal("AVG over non-numeric value".into()));
                    }
                }
            }
            Ok(())
        }

        fn finish(&self) -> Value {
            match self {
                RowAccumulator::Group => Value::Null,
                RowAccumulator::Count { n } => Value::Int(*n as i64),
                RowAccumulator::Sum {
                    int,
                    float,
                    any_float,
                    n,
                } => {
                    if *n == 0 {
                        Value::Null
                    } else if *any_float {
                        Value::Float(float.clone().total() + *int as f64)
                    } else {
                        Value::Int(*int)
                    }
                }
                RowAccumulator::MinMax { best, .. } => best.clone().unwrap_or(Value::Null),
                RowAccumulator::Avg { sum, n } => {
                    if *n == 0 {
                        Value::Null
                    } else {
                        Value::Float(sum.clone().total() / *n as f64)
                    }
                }
            }
        }
    }

    /// The reference's tail over rows: HAVING, ORDER BY (ties broken on
    /// the whole row), LIMIT.
    fn row_tail(
        result: VRelation,
        q: &ConjunctiveQuery,
        budget: &mut Budget,
    ) -> Result<VRelation, EvalError> {
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

    /// Sorts rows by the given `(column, descending)` keys, then by the
    /// whole row, in [`Value`]'s total order (stable: rows equal in it
    /// keep their order).
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
            let identity = x.iter().zip(y.iter()).map(|(a, b)| a.cmp_identity(b));
            x.cmp(y)
                .then_with(|| identity.fold(Ordering::Equal, Ordering::then))
        });
        Ok(VRelation::from_rows(cols, rows))
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
        row_tail(result, q, budget)
    }

    /// A repeated label takes the smallest suffix that no label of the
    /// query has and no earlier label was given.
    #[test]
    fn uniquify_skips_labels_the_query_chose() {
        let u = |l: &[&str]| uniquify(l.iter().copied());
        assert_eq!(u(&["a", "b", "a", "a"]), ["a", "b", "a_2", "a_3"]);
        assert_eq!(u(&["a", "a_2", "a"]), ["a", "a_2", "a_3"]);
        assert_eq!(u(&["a", "a", "a_2"]), ["a", "a_3", "a_2"]);
        assert_eq!(u(&["a_2", "a", "a", "a_2"]), ["a_2", "a", "a_3", "a_2_2"]);
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
    fn a_counted_answer_weights_its_rows() {
        // One row standing for two, beside a plain column no item reads:
        // the sum and the count see both copies.
        let q = CqBuilder::new()
            .atom_vars("r", &["X", "R"])
            .out_agg(AggFunc::Sum, Some(ScalarExpr::Var("X".into())), "s")
            .out_agg(AggFunc::Count, None, "n")
            .build();
        let a = answer(&["X", "R"], vec![vec![Value::Int(5), Value::Int(0)]]);
        let counted = CRel::from_vrel(&a).with_counts(vec![2]);
        let mut budget = Budget::unlimited();
        let out = finalize_c(&counted, &q, &mut budget).unwrap();
        assert_eq!(out.cols(), &["s".to_string(), "n".to_string()]);
        assert_eq!(out.value(0, "s"), Some(&Value::Int(10)));
        assert_eq!(out.value(0, "n"), Some(&Value::Int(2)));
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

    /// `ORDER BY … LIMIT k` selects the first `k` groups, then sorts
    /// only them: `LIMIT 0`, `1`, the number of groups and one past it
    /// keep the prefix of the unlimited order, in memory and spilled, with
    /// the same charges. The minima `0.0`, `-0.0` and `Int(0)` tie in
    /// `Value`'s order and come out in `Value::cmp_identity`'s whichever
    /// group arrives first.
    #[test]
    fn limit_selects_then_sorts_the_first_groups() {
        use crate::error::SpillMode;
        let mins = [
            Value::Float(-0.0),
            Value::Int(2),
            Value::Float(0.0),
            Value::Int(0),
            Value::Float(1.5),
        ];
        let n = mins.len();
        // `(Int(0), 0.0, -0.0)`: type rank, then bits.
        let want = [&mins[3], &mins[2], &mins[0], &mins[4], &mins[1]].map(|v| vec![v.clone()]);
        let query = |limit| {
            let b = CqBuilder::new()
                .atom_vars("r", &["G", "X"])
                .out_agg(AggFunc::Min, Some(ScalarExpr::Var("X".into())), "m")
                .group("G")
                .order("m", SortDir::Asc);
            match limit {
                Some(k) => b.limit(k),
                None => b,
            }
            .build()
        };
        let cells =
            |r: &VRelation| -> Vec<Vec<Value>> { r.rows().iter().map(|r| r.to_vec()).collect() };
        for rotation in 0..n {
            // Group `g` holds its minimum and a larger value.
            let rows = (0..n)
                .flat_map(|g| {
                    let min = mins[(g + rotation) % n].clone();
                    [
                        vec![Value::Int(g as i64), Value::Int(9)],
                        vec![Value::Int(g as i64), min],
                    ]
                })
                .collect();
            let a = CRel::from_vrel(&answer(&["G", "X"], rows));
            let mut unlimited = Budget::unlimited();
            let all = finalize_c(&a, &query(None), &mut unlimited).unwrap();
            assert_eq!(cells(&all), want, "rotation {rotation}");
            for k in [0, 1, n, n + 1] {
                for spill in [SpillMode::Off, SpillMode::Force] {
                    let mut budget = Budget::unlimited().with_spill_mode(spill);
                    let out = finalize_c(&a, &query(Some(k)), &mut budget).unwrap();
                    let ctx = format!("rotation {rotation}, LIMIT {k}, {spill:?}");
                    assert_eq!(cells(&out), want[..k.min(n)], "{ctx}");
                    assert_eq!(budget.charged(), unlimited.charged(), "{ctx}");
                }
            }
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

        // Counted: row `i` stands for `weights[i]` copies. The kernel
        // answers what the row path answers over the copies — the same
        // bits and errors, and the same charges unless a float it sums or
        // averages repeats outside the exact range, where it answers over
        // the copies instead.
        let weights = |n: usize| (0..n).map(|i| 1 + (i as u64 * 7) % 3).collect::<Vec<_>>();
        let mut weighted = [0usize; 3];
        for q in &queries {
            for (rows, cols) in [(&a, &ca), (&long, &c_long), (&empty, &c_empty)] {
                let w = weights(rows.len());
                let counted = (cols.clone()).with_counts(w.iter().map(|&m| m as i64).collect());
                let mut b1 = Budget::unlimited();
                let mut b2 = Budget::unlimited();
                let want = row_finalize(&repeat(rows, &w), q, &mut b1);
                let got = finalize_c(&counted, q, &mut b2);
                assert_eq!(format!("{want:?}"), format!("{got:?}"), "{:?}", q.output);
                if inexact_repeat(rows, &w, q) {
                    weighted[0] += 1;
                } else {
                    weighted[1 + got.is_ok() as usize] += 1;
                    assert_eq!(b1.charged(), b2.charged(), "{:?}", q.output);
                }
            }
        }
        assert!(
            weighted.iter().all(|&n| n > 5),
            "{weighted:?} (repeated, errors, answers)"
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

    // The kernel's property suite: random answers and queries, each run
    // through the kernel in memory, under forced spill, under a byte
    // limit and weighted, against the row reference.

    /// Answers (each with its queries) the suite draws:
    /// `HTQO_CHAOS_CASES` (default 100).
    fn kernel_cases() -> u64 {
        std::env::var("HTQO_CHAOS_CASES")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(100)
    }

    /// A splitmix64 stream: the suite's one source of randomness.
    struct Gen(u64);

    impl Gen {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn chance(&mut self, per_mille: u64) -> bool {
            self.below(1000) < per_mille
        }

        fn pick<T: Clone>(&mut self, xs: &[T]) -> T {
            xs[self.below(xs.len() as u64) as usize].clone()
        }
    }

    /// Group-key kinds: `Int`, `Date` and `Str` keys without NULLs take
    /// the direct table when their range fits, the rest the hashed one.
    const KEY_KINDS: [&str; 7] = [
        "int",
        "int_sparse",
        "str",
        "date",
        "float",
        "mixed",
        "int_nulls",
    ];

    /// Key `k` of a key column of `kind`, at row `i`: `-0.0`/`0.0` and
    /// NaNs of both signs share a group.
    fn key_cell(kind: &str, k: u64, i: usize) -> Value {
        match kind {
            "int" => Value::Int(k as i64 - 3),
            "int_sparse" => Value::Int(k as i64 * 1_000_003),
            "str" => Value::str(&format!("k{k}")),
            "date" => Value::Date(9_000 + k as i32),
            "float" => match k {
                0 => Value::Float(if i.is_multiple_of(2) { 0.0 } else { -0.0 }),
                1 => Value::Float(if i.is_multiple_of(2) {
                    f64::NAN
                } else {
                    -f64::NAN
                }),
                k => Value::Float(k as f64 * 0.5),
            },
            "mixed" if k.is_multiple_of(2) => Value::Int(k as i64),
            "mixed" => Value::str(&format!("m{k}")),
            _ if k == 0 => Value::Null,
            _ => Value::Int(k as i64),
        }
    }

    /// The value columns: `X` `Int` (wrapping extremes), `F` `Float`
    /// (NaN, ±0.0, ±∞, 1e300, money), `S` `Str` and `D` `Date` (mostly
    /// NULL, so they fail anywhere from the first row to never), `M`
    /// mixed; each with NULLs.
    const VALUE_COLS: [&str; 5] = ["X", "F", "S", "D", "M"];

    fn value_cell(g: &mut Gen, col: &str, rare: u64) -> Value {
        if g.chance(120) {
            return Value::Null;
        }
        match col {
            "X" => match g.below(20) {
                0 => Value::Int(i64::MAX),
                1 => Value::Int(i64::MIN + 1),
                _ => Value::Int(g.below(2_000) as i64 - 1_000),
            },
            "F" => match g.below(40) {
                0 => Value::Float(f64::NAN),
                1 => Value::Float(-f64::NAN),
                2 => Value::Float(-0.0),
                3 => Value::Float(0.0),
                4 => Value::Float(f64::INFINITY),
                5 => Value::Float(f64::NEG_INFINITY),
                6 => Value::Float(1e300),
                7 => Value::Float(5e-324),
                _ => Value::Float((g.below(2_000_000) as f64 - 1e6) / 100.0),
            },
            "S" if g.chance(rare) => Value::str(["s", "t", "u"][g.below(3) as usize]),
            "D" if g.chance(rare) => Value::Date(g.below(50) as i32),
            "M" => match g.below(8) {
                0 if g.chance(rare) => Value::str("m"),
                1 if g.chance(rare) => Value::Date(7),
                2 | 3 => Value::Float(g.below(100) as f64 * 0.25),
                _ => Value::Int(g.below(100) as i64),
            },
            _ => Value::Null,
        }
    }

    /// A random scalar expression of depth at most `depth`.
    fn random_expr(g: &mut Gen, depth: u32) -> ScalarExpr {
        use htqo_cq::{ArithOp, Literal};
        match g.below(if depth == 0 { 10 } else { 16 }) {
            0..=5 => {
                let absent = g.chance(20);
                ScalarExpr::Var(if absent { "ZZ" } else { g.pick(&VALUE_COLS) }.into())
            }
            6..=9 => {
                let other = if g.chance(300) {
                    Literal::Str("lit".into())
                } else {
                    Literal::Date(11)
                };
                ScalarExpr::Lit(g.pick(&[
                    Literal::Int(1),
                    Literal::Int(-3),
                    Literal::Int(i64::MAX),
                    Literal::Float(0.5),
                    Literal::Float(-0.0),
                    Literal::Float(f64::INFINITY),
                    Literal::Float(f64::NAN),
                    Literal::Int(7),
                    Literal::Float(2.25),
                    other,
                ]))
            }
            _ => {
                let op = g.pick(&[ArithOp::Add, ArithOp::Sub, ArithOp::Mul, ArithOp::Div]);
                let l = random_expr(g, depth - 1);
                let r = random_expr(g, depth - 1);
                ScalarExpr::Binary(Box::new(l), op, Box::new(r))
            }
        }
    }

    /// A random answer over key columns `K0`, `K1` (one or both grouped),
    /// the value columns and a distinct `R`, with 1–2,000 groups and
    /// up to 3,000 rows; and queries over it.
    fn kernel_case(g: &mut Gen) -> (VRelation, Vec<ConjunctiveQuery>) {
        use htqo_cq::{CmpOp, Literal};
        let n = g.pick(&[0usize, 1, 5, 200, 1_023, 1_024, 1_025, 2_100, 3_000]);
        let groups = g.pick(&[1u64, 2, 5, 37, 300, 1_000, 2_000]);
        let kinds = [g.pick(&KEY_KINDS), g.pick(&KEY_KINDS)];
        let split = 1 + g.below(groups);
        let rare = g.pick(&[0u64, 1, 30, 400]);
        let mut cols: Vec<&str> = vec!["K0", "K1"];
        cols.extend(VALUE_COLS);
        cols.push("R");
        let rows = (0..n)
            .map(|i| {
                let k = g.below(groups);
                let mut row = vec![
                    key_cell(kinds[0], k % split, i),
                    key_cell(kinds[1], k / split, i),
                ];
                row.extend(VALUE_COLS.map(|c| value_cell(g, c, rare)));
                row.push(Value::Int(i as i64));
                row
            })
            .collect();
        let a = answer(&cols, rows);
        let queries = (0..4)
            .map(|_| {
                let mut b = CqBuilder::new().atom_vars("r", &cols);
                let keys: &[&str] = g.pick(&[&[][..], &["K0"], &["K1", "K0"]]);
                let plain = g.chance(150);
                let mut labels: Vec<String> = Vec::new();
                for &k in keys {
                    b = b.group(k);
                    for _ in 0..g.below(3) {
                        b = b.out_var(k);
                        labels.push(k.into());
                    }
                }
                if plain {
                    b = b.out_var(g.pick(&VALUE_COLS)).out_var("R");
                } else {
                    for j in 0..1 + g.below(4) {
                        let func = g.pick(&[
                            AggFunc::Sum,
                            AggFunc::Count,
                            AggFunc::Avg,
                            AggFunc::Min,
                            AggFunc::Max,
                        ]);
                        let expr = if g.chance(100) {
                            None
                        } else {
                            Some(random_expr(g, 2))
                        };
                        let label = format!("v{j}");
                        b = b.out_agg(
                            if expr.is_none() { AggFunc::Count } else { func },
                            expr,
                            &label,
                        );
                        labels.push(label);
                    }
                }
                if !labels.is_empty() && !plain && g.chance(250) {
                    let lit = g.pick(&[Literal::Int(0), Literal::Float(-12.5), Literal::Int(3)]);
                    let op = g.pick(&[CmpOp::Ge, CmpOp::Lt, CmpOp::Ne]);
                    b = b.having(&g.pick(&labels), op, lit);
                }
                if !labels.is_empty() && g.chance(500) {
                    let dir = g.pick(&[SortDir::Asc, SortDir::Desc]);
                    b = b.order(&g.pick(&labels), dir);
                }
                if g.chance(250) {
                    b = b.limit(g.below(groups + 2) as usize);
                }
                b.build()
            })
            .collect();
        (a, queries)
    }

    /// An answer's columns and rows, floats as their bits.
    fn bits(r: &Result<VRelation, EvalError>) -> Vec<String> {
        let rel = match r {
            Ok(rel) => rel,
            Err(e) => return vec![format!("error {e:?}")],
        };
        let cell = |v: &Value| match v {
            Value::Float(x) => format!("F{:x}", x.to_bits()),
            v => format!("{v:?}"),
        };
        let rows =
            (rel.rows().iter()).map(|row| row.iter().map(cell).collect::<Vec<_>>().join("|"));
        std::iter::once(format!("{:?}", rel.cols()))
            .chain(rows)
            .collect()
    }

    /// `rows` with row `i` repeated `w[i]` times.
    fn repeat(rows: &VRelation, w: &[u64]) -> VRelation {
        let copies = (rows.rows().iter().zip(w))
            .flat_map(|(r, &m)| std::iter::repeat_n(r.to_vec(), m as usize));
        let cols: Vec<&str> = rows.cols().iter().map(|c| c.as_str()).collect();
        answer(&cols, copies.collect())
    }

    /// True if some `SUM`/`AVG` of `q` takes, on a row weighted above 1, a
    /// float that [`FloatSum::add_times`] cannot repeat exactly — the one
    /// case where `finalize_c` answers over the repeated rows.
    fn inexact_repeat(rows: &VRelation, w: &[u64], q: &ConjunctiveQuery) -> bool {
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
    }

    /// The kernel answers what the row reference answers — columns,
    /// rows in order, float bits, tuple charges, and the error of the
    /// first failing row — over direct and hashed group keys, 1–2,000
    /// groups, answers longer than a block, every column kind with NULLs
    /// and every aggregate over variables, literals and expressions
    /// (wrapping, `/`, NaN, ±0.0, ±∞). Forced to spill it answers the same
    /// rows in the same order with the same charges; under a byte limit
    /// the same rows or a `MemoryExceeded`. Over a counted answer it
    /// answers what it answers over the answer with row `i` repeated
    /// `w[i]` times, with the same charges unless a repeated float is
    /// outside the exact range.
    #[test]
    fn the_kernel_answers_what_the_row_reference_answers() {
        // Direct keys, hashed keys, long answers of many groups, errors,
        // answers, byte-limit denials, repeated floats.
        let mut seen = [0usize; 7];
        for case in 0..kernel_cases() {
            check_kernel_case(case, &mut seen);
        }
        if kernel_cases() >= 24 {
            assert!(seen.iter().all(|&n| n > 0), "{seen:?}");
        }
    }

    /// Case 2177 of the generator: a `MIN` over a column holding `Int(0)`
    /// and `Float(0.0)` under `LIMIT 1`, where the in-memory and the
    /// spilled path once kept different rows (the groups are equal in
    /// [`Value`]'s order and kept their arrival order).
    #[test]
    fn equal_groups_keep_one_order_under_a_limit() {
        check_kernel_case(2177, &mut [0; 7]);
    }

    /// One case of [`the_kernel_answers_what_the_row_reference_answers`],
    /// counting what it exercised in `seen`.
    fn check_kernel_case(case: u64, seen: &mut [usize; 7]) {
        use crate::error::SpillMode;
        let mut g = Gen(case.wrapping_mul(0x2545_F491_4F6C_DD1D));
        let (a, queries) = kernel_case(&mut g);
        let ca = CRel::from_vrel(&a);
        for q in &queries {
            let ctx = format!(
                "case {case}, {} rows: {:?} GROUP BY {:?} HAVING {:?} ORDER BY {:?} LIMIT {:?}",
                a.len(),
                q.output,
                q.group_by,
                q.having,
                q.order_by,
                q.limit
            );
            if let Ok(idx) = group_layout(ca.cols(), q, &visible_output(q).0) {
                let reader = dict::reader();
                match GroupIds::new(&ca, &idx, 8 * ca.len() as u64, &reader) {
                    GroupIds::Direct { .. } => seen[0] += 1,
                    GroupIds::Hashed { .. } => seen[1] += 1,
                    GroupIds::One => {}
                }
            }
            let mut b1 = Budget::unlimited();
            let want = row_finalize(&a, q, &mut b1);
            let mut b2 = Budget::unlimited();
            let got = finalize_c(&ca, q, &mut b2);
            assert_eq!(bits(&want), bits(&got), "{ctx}");
            assert_eq!(b1.charged(), b2.charged(), "{ctx}");
            match &want {
                Ok(w) if a.len() > EVAL_BLOCK && w.len() > 500 => seen[2] += 1,
                Ok(_) => {}
                Err(_) => seen[3] += 1,
            }
            seen[4] += want.is_ok() as usize;
            if !q.has_aggregates() {
                continue;
            }

            // Spilled, the groups arrive in partition order; the tail
            // still puts them in one order, so a LIMIT keeps the same rows.
            let mut forced = Budget::unlimited().with_spill_mode(SpillMode::Force);
            let spilled = finalize_c(&ca, q, &mut forced);
            if want.is_ok() {
                assert_eq!(bits(&want), bits(&spilled), "{ctx} (forced spill)");
                assert_eq!(b1.charged(), forced.charged(), "{ctx} (forced spill)");
            } else {
                assert!(spilled.is_err(), "{ctx} (forced spill)");
            }

            let limit = 1_000 + g.below(60_000);
            let mut capped = Budget::unlimited().with_mem_limit(limit);
            match (&want, finalize_c(&ca, q, &mut capped)) {
                (_, Err(EvalError::MemoryExceeded { .. })) => seen[5] += 1,
                (Ok(_), got) => {
                    assert_eq!(bits(&want), bits(&got), "{ctx} (limit {limit})");
                    assert!(capped.charged() >= b1.charged(), "{ctx} (limit {limit})");
                }
                (Err(_), got) => assert!(got.is_err(), "{ctx} (limit {limit})"),
            }

            let w: Vec<u64> = (0..a.len()).map(|_| 1 + g.below(3)).collect();
            let mut b3 = Budget::unlimited();
            let want = finalize_c(&CRel::from_vrel(&repeat(&a, &w)), q, &mut b3);
            let counted = ca
                .clone()
                .with_counts(w.iter().map(|&m| m as i64).collect());
            let mut b4 = Budget::unlimited();
            let got = finalize_c(&counted, q, &mut b4);
            assert_eq!(bits(&want), bits(&got), "{ctx} (counted)");
            if inexact_repeat(&a, &w, q) {
                seen[6] += 1;
            } else {
                assert_eq!(b3.charged(), b4.charged(), "{ctx} (counted)");
            }
        }
    }
}
