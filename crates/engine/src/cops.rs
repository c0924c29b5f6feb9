//! Columnar physical operators over [`CRel`]s: natural (hash) join,
//! semijoin and projection — the executor under every planner (q-HD
//! and the left-deep join orders). Every operator charges freshly
//! materialized tuples to a [`Budget`], which is how the harness
//! reproduces the paper's "did not terminate" baseline data points
//! deterministically.
//!
//! A join builds on the smaller side (`a` on a tie) and lays its output
//! out in the caller's column order (`a`'s columns, then `b`'s others).
//! The kernels never touch a boxed `Value` on the hot path. Each makes one
//! pass over its probe column, read where its input keeps its rows, and
//! addresses the key by what the key columns show (`keyplan`, DESIGN.md
//! §3.8 "Key plans"): a `DirectTable` (a semijoin: a bitmap) indexed by
//! packed key when the key's range fits the bytes the kernel has reserved
//! anyway; else the `ChainTable` hash table over key hashes, candidates
//! verified by typed cell comparisons ([`crate::column::Column::eq_at`]),
//! behind one exact bitmap per key column when the key has a plan.
//! Grouping rows by a key goes through `GroupIds`, the engine's one table
//! from a key to its group.
//!
//! A join collects the matching `(build, probe)` row index pairs,
//! charging the budget once per block of probe rows (`BLOCK`), not once
//! per pair; [`natural_join`] then runs one gather pass per output
//! column. The vertex join of `P′` ([`join_vertex`]) gathers nothing
//! between its joins: it composes the pairs into one position list per
//! input and gathers each surviving column once, at the end. The direct,
//! filtered and hashed kernels emit the same pair sequence (probe-major,
//! ascending build row), so the output row order does not depend on
//! which table a key gets.

use crate::chain::{ChainTable, DirectTable, CHAIN_END};
use crate::column::Column;
use crate::crel::{count_cells, read_source, CRel, Name, Selection, COUNT};
use crate::dict::{self, DictReader};
use crate::error::{Budget, EvalError};
use crate::hash::FxHashMap;
use crate::index::{encode_cell, JoinIndex, SEEK_MARGIN};
use crate::keyplan::{self, blocks, Bitmap, KeyPlan, Keys, BLOCK};
use crate::spill::{
    self, join_build_bytes, join_build_reservation, Concat, SpillDir, SpillFile, SpillReader,
    MAX_SPILL_LEVEL,
};
use std::borrow::{Borrow, Cow};
use std::convert::Infallible;
use std::ops::Range;
use std::sync::Arc;

/// Matching `(build, probe)` row index lists produced by a join kernel.
type PairLists = (Vec<u32>, Vec<u32>);

/// Bytes one matching `(build, probe)` index pair occupies in the
/// kernels' pair lists (two `u32`s), charged per output row.
pub(crate) const PAIR_BYTES: u64 = 8;

/// Resident payload bytes of a columnar relation (sum of its columns'
/// typed vectors), charged when a kernel materializes its output.
pub(crate) fn crel_payload_bytes(r: &CRel) -> u64 {
    r.columns().iter().map(|c| c.payload_bytes() as u64).sum()
}

/// Column positions of the shared variables in `a` and `b` ([`COUNT`] is
/// never one), plus the positions in `b` of its non-shared columns:
/// three lists in one ([`JoinLayout::parts`]).
struct JoinLayout(Vec<usize>, usize);

fn join_layout(a: &CRel, b: &CRel) -> JoinLayout {
    let mut idx = Vec::with_capacity(a.cols().len() + b.cols().len());
    let shared = |c: &Name| (**c != *COUNT).then(|| b.col_index(c)).flatten();
    idx.extend((0..a.cols().len()).filter(|&i| shared(&a.cols()[i]).is_some()));
    let keys = idx.len();
    idx.extend(a.cols().iter().filter_map(shared));
    idx.extend((0..b.cols().len()).filter(|&j| a.col_index(&b.cols()[j]).is_none()));
    JoinLayout(idx, keys)
}

impl JoinLayout {
    /// `(a's key columns, b's key columns, b's other columns)`.
    fn parts(&self) -> (&[usize], &[usize], &[usize]) {
        let (a_shared, rest) = self.0.split_at(self.1);
        let (b_shared, b_rest) = rest.split_at(self.1);
        (a_shared, b_shared, b_rest)
    }
}

/// `0..n` as a slice: borrowed for the short keys nearly every join has.
pub(crate) fn iota(n: usize) -> Cow<'static, [usize]> {
    const SHORT: [usize; 8] = [0, 1, 2, 3, 4, 5, 6, 7];
    SHORT
        .get(..n)
        .map_or_else(|| Cow::Owned((0..n).collect()), Cow::Borrowed)
}

/// Permutes the columns of `r` into the order `desired` names them (a
/// permutation of `r`'s names) by swapping them in place: no cell, name
/// or list is copied.
fn reorder<'n>(r: CRel, desired: impl IntoIterator<Item = &'n Name>) -> CRel {
    let (mut cols, mut columns, len) = r.into_parts();
    for (k, name) in desired.into_iter().enumerate() {
        let i = (cols[k..].iter()).position(|c| c == name);
        let i = k + i.expect("reorder: missing column");
        cols.swap(k, i);
        columns.swap(k, i);
    }
    CRel::new(cols, columns, len)
}

/// The two inputs of a join as `(build, probe, swapped)`: the build side
/// is the smaller one, `a` on a tie.
fn sides<'r>(a: &'r CRel, b: &'r CRel) -> (&'r CRel, &'r CRel, bool) {
    if a.len() <= b.len() {
        (a, b, false)
    } else {
        (b, a, true)
    }
}

/// Lays a join's output out in the caller's column order (`a`'s columns,
/// then `b`'s others) when the kernel built on `b`.
fn caller_order(out: CRel, a: &CRel, b: &CRel, swapped: bool) -> CRel {
    if !swapped {
        return out;
    }
    let b_rest = b.cols().iter().filter(|c| !a.cols().contains(c));
    reorder(out, a.cols().iter().chain(b_rest))
}

/// Natural join of `a` and `b` on their shared variables. With no shared
/// variables this degenerates to a cross product (still budget-charged).
/// One tuple charged per output row; rows in probe-major order, ascending
/// build row within a probe row.
///
/// The [`COUNT`] column of a counted input is never a key: it is carried
/// into the output, and where both inputs are counted the output's count
/// is the product of the two (past `u64`: [`EvalError::CountOverflow`]).
pub fn natural_join(a: &CRel, b: &CRel, budget: &mut Budget) -> Result<CRel, EvalError> {
    crate::fail_point!("cops::join");
    budget.join_stats().add_hash_build();
    let (build, probe, swapped) = sides(a, b);
    let layout = join_layout(build, probe);
    let (build_shared, probe_shared, probe_rest) = layout.parts();
    if join_build_reservation(budget, build_shared, build.len(), probe.len())? {
        return grace_join(a, b, budget);
    }

    let keys = (Keys::of(build, build_shared), Keys::of(probe, probe_shared));
    let result = join_pairs(&keys.0, &keys.1, budget);
    // The build table (and hash scratch) is gone either way.
    budget.uncharge_bytes(join_build_bytes(build.len(), probe.len()));
    let out = join_output(build, probe, probe_rest, &result?)?;
    budget.charge_bytes(crel_payload_bytes(&out))?;
    Ok(caller_order(out, a, b, swapped))
}

/// A join's output from its matching pairs: `build`'s columns, then
/// `probe`'s columns `probe_rest`, one gather pass per column. Where both
/// sides are counted, the build side's [`COUNT`] column (the probe side's
/// is not in `probe_rest`) is multiplied in place by the probe side's.
fn join_output(
    build: &CRel,
    probe: &CRel,
    probe_rest: &[usize],
    (build_idx, probe_idx): &PairLists,
) -> Result<CRel, EvalError> {
    let mut cols = Vec::with_capacity(build.cols().len() + probe_rest.len());
    cols.extend_from_slice(build.cols());
    cols.extend(probe_rest.iter().map(|&j| probe.cols()[j].clone()));
    let mut columns: Vec<Arc<Column>> = (build.columns().iter())
        .map(|c| Arc::new(c.gather(build_idx)))
        .chain((probe_rest.iter()).map(|&j| Arc::new(probe.column(j).gather(probe_idx))))
        .collect();
    if let (Some(i), Some(partner)) = (build.col_index(COUNT), probe.counts()) {
        let product = (count_cells(&columns[i]).iter().zip(probe_idx))
            .map(|(&x, &j)| (x as u64).checked_mul(partner[j as usize] as u64))
            .map(|p| p.map(|p| p as i64))
            .collect::<Option<Vec<i64>>>()
            .ok_or(EvalError::CountOverflow)?;
        columns[i] = Arc::new(Column::from_ints(product));
    }
    Ok(CRel::new(cols, columns, build_idx.len()))
}

/// The grace spill route of [`natural_join`], for a caller whose
/// `join_build_reservation` chose it: both sides are partitioned by the
/// hash of their shared key ([`spill::partition`]), and each partition
/// pair is joined by the in-memory kernels: the build partition is
/// loaded, its bytes reserved, and the probe partition streams through
/// [`join_pairs`] and [`join_output`] in batches of chunks at least as
/// long as the build side (so building the table once per batch costs no
/// more than probing it). A pair whose reservation is denied is split one
/// level deeper with a re-salted partition function, in its place; at
/// [`MAX_SPILL_LEVEL`] the reservation becomes mandatory and a denial is
/// a clean `MemoryExceeded` (one pathological key can defeat any amount
/// of partitioning). Output: partitions in index order, probe order
/// within a partition — deterministic, but not the in-memory order (all
/// consumers are set-semantic); the columns are the in-memory join's,
/// variant for variant. `Err` paths reclaim the temp directory via the
/// [`SpillDir`] drop guard.
fn grace_join(a: &CRel, b: &CRel, budget: &mut Budget) -> Result<CRel, EvalError> {
    let (build, probe, swapped) = sides(a, b);
    let layout = join_layout(build, probe);
    let (build_shared, probe_shared, probe_rest) = layout.parts();
    let stats = budget.spill_stats();
    let mut dir = SpillDir::create(budget.spill_dir())?;
    let none = PairLists::default();
    let mut out = Concat::new(&join_output(build, probe, probe_rest, &none)?, 0);
    let join_loaded = |build_file: &SpillFile,
                       probe_file: &SpillFile,
                       batch: usize,
                       out: &mut Concat,
                       budget: &mut Budget| {
        let build_part = spill::load(build_file, build)?;
        let mut reader = SpillReader::open(probe_file, probe)?;
        let mut rows = Concat::new(probe, batch.min(probe_file.rows as usize));
        let mut chunks = std::iter::from_fn(|| reader.read_chunk().transpose()).peekable();
        while let Some(chunk) = chunks.next() {
            rows.push(&chunk?);
            if rows.len() >= batch || chunks.peek().is_none() {
                let rows = rows.take();
                let keys = (
                    Keys::of(&build_part, build_shared),
                    Keys::of(&rows, probe_shared),
                );
                let pairs = join_pairs(&keys.0, &keys.1, budget)?;
                let part = join_output(&build_part, &rows, probe_rest, &pairs)?;
                budget.charge_bytes(crel_payload_bytes(&part))?;
                out.push(&part);
            }
        }
        Ok::<(), EvalError>(())
    };
    // Partition pairs left, with their levels, the next one last.
    let pairs = |b: Vec<SpillFile>, p: Vec<SpillFile>, level| {
        b.into_iter().zip(p).rev().map(move |(b, p)| (b, p, level))
    };
    let build_parts = spill::partition(&dir, "b", build, build_shared, 0, &stats)?;
    let probe_parts = spill::partition(&dir, "p", probe, probe_shared, 0, &stats)?;
    let mut todo: Vec<_> = pairs(build_parts, probe_parts, 0).collect();
    while let Some((build_file, probe_file, level)) = todo.pop() {
        if build_file.rows == 0 || probe_file.rows == 0 {
            continue;
        }
        let batch = build_file.rows.max(BLOCK as u64);
        let batch_rows = probe_file.rows.min(batch + BLOCK as u64);
        // The loaded build side, one batch of probe rows, and the kernel's
        // table and hash arrays over them.
        let est = build_file.bytes
            + probe_file.bytes * batch_rows / probe_file.rows
            + join_build_bytes(build_file.rows as usize, batch_rows as usize);
        if !budget.try_reserve_bytes(est) {
            if level < MAX_SPILL_LEVEL {
                let (next, key) = (level + 1, build_shared);
                let b = spill::repartition(&dir, "b", &build_file, build, key, next, &stats)?;
                let key = probe_shared;
                let p = spill::repartition(&dir, "p", &probe_file, probe, key, next, &stats)?;
                todo.extend(pairs(b, p, next));
                continue;
            }
            budget.reserve_bytes(est)?;
        }
        let result = join_loaded(&build_file, &probe_file, batch as usize, &mut out, budget);
        budget.uncharge_bytes(est);
        result?;
    }
    dir.cleanup()?;
    Ok(caller_order(out.take(), a, b, swapped))
}

/// Bytes one entry of a vertex join's position lists occupies — what the
/// governor charges per accumulator row per joined input.
const POS_BYTES: u64 = 4;

/// The `P′` join of one decomposition vertex: joins `inputs` and projects
/// the result onto the variables of `chi` it carries (distinct rows).
///
/// It answers exactly like folding [`natural_join`] over the gathered
/// inputs in greedy order and finishing with [`project_onto_available`] —
/// the same pair sequence per join, rows, row order, column order, tuple
/// charges and hash builds — but late-materialized. The accumulator is
/// one position list per input joined so far; each join gathers only the
/// accumulator's key columns, runs the kernel the key calls for
/// (`join_pairs`) and composes the lists with the pairs; each column
/// that survives into `chi` is gathered once, at the end. Bytes charged:
/// the position lists (4 B per row per input), the pair lists, and the
/// final columns. A join whose build reservation is denied materializes
/// both sides and takes the grace spill route of [`natural_join`]; its
/// output is the accumulator from then on.
///
/// An input that carries an index on a variable the accumulator holds
/// (`select_atom` with `seek`) is joined by index seek instead when the
/// accumulator is at least [`SEEK_MARGIN`] times smaller than it: one
/// probe per distinct accumulator key, and the input's scan charge is
/// never paid — only its matched pairs are. The answer is the same set;
/// its rows come out accumulator-major.
///
/// Greedy order: the smallest input first, then repeatedly the smallest
/// input sharing a variable with those joined (the first of equals after
/// `swap_remove`), a cross product only when none does — the "choice of
/// the topological order" the paper grants the evaluator (§4), applied
/// within one vertex.
pub fn join_vertex(
    inputs: Vec<Selection<'_>>,
    chi: &[Name],
    budget: &mut Budget,
) -> Result<CRel, EvalError> {
    join_vertex_with(inputs, chi, false, budget)
}

/// [`join_vertex`] as a counted relation ([`COUNT`]): each row of the
/// projection onto `chi` counts the join rows it stands for. The join
/// and its charges are [`join_vertex`]'s; the last step sums instead of
/// deduplicating, or, where it keeps every column, appends a count of 1
/// per row.
pub fn join_vertex_counted(
    inputs: Vec<Selection<'_>>,
    chi: &[Name],
    budget: &mut Budget,
) -> Result<CRel, EvalError> {
    join_vertex_with(inputs, chi, true, budget)
}

/// An input of a counted vertex join that must only bound it, not count
/// in it (a λ atom the vertex does not enforce): its distinct rows over
/// the variables of `chi` it carries, or `None` if it carries none of
/// them — it then bounds nothing `chi` holds.
pub fn bound(
    mut input: Selection<'_>,
    chi: &[Name],
    budget: &mut Budget,
) -> Result<Option<Selection<'static>>, EvalError> {
    input.pay(budget)?;
    let (rel, fresh_bytes) = input.gather();
    budget.charge_bytes(fresh_bytes)?;
    let idx: Vec<usize> = chi.iter().filter_map(|v| rel.col_index(v)).collect();
    if idx.is_empty() {
        return Ok(None);
    }
    Ok(Some(Selection::from(project_columns(
        &rel, idx, true, budget,
    )?)))
}

/// [`join_vertex`], counted or not.
fn join_vertex_with(
    mut inputs: Vec<Selection<'_>>,
    chi: &[Name],
    counted: bool,
    budget: &mut Budget,
) -> Result<CRel, EvalError> {
    let Some(first) = smallest(inputs.iter().enumerate()) else {
        let neutral = CRel::neutral();
        return Ok(if counted {
            neutral.with_counts(vec![1])
        } else {
            neutral
        });
    };
    for s in &inputs {
        budget.charge_bytes(POS_BYTES * s.rows.as_ref().map_or(0, Vec::len) as u64)?;
    }
    let width = inputs.iter().map(|s| s.vars.len()).sum();
    let count = inputs.len();
    let mut first = inputs.swap_remove(first);
    first.pay(budget)?;
    let mut acc = Positions::start(first, width, count);
    while !inputs.is_empty() {
        let connected = (inputs.iter().enumerate())
            .filter(|(_, s)| s.vars.iter().any(|v| acc.var(v).is_some()));
        let i = smallest(connected)
            .or_else(|| smallest(inputs.iter().enumerate()))
            .expect("non-empty");
        acc.join(inputs.swap_remove(i), budget)?;
    }
    acc.finish(chi, counted, budget)
}

/// Position of the input with the fewest rows (the first of equals).
fn smallest<'s>(inputs: impl Iterator<Item = (usize, &'s Selection<'s>)>) -> Option<usize> {
    inputs.min_by_key(|(_, s)| s.len()).map(|(i, _)| i)
}

/// The rows of a vertex join so far ([`join_vertex`]).
struct Positions<'a> {
    /// Output variables in column order, each with where it reads:
    /// `(input, source within the input)`.
    vars: Vec<(Name, (usize, usize))>,
    inputs: Vec<Joined<'a>>,
    len: usize,
}

/// An input joined into [`Positions`]: its sources (as in [`Selection`])
/// and the row of them each accumulator row reads (`None`: row `i` reads
/// row `i`).
type Joined<'a> = (Vec<Cow<'a, Arc<Column>>>, Option<Vec<u32>>);

impl<'a> Positions<'a> {
    /// The rows of `s` alone; `width` is the number of variables the
    /// vertex's `count` inputs carry between them.
    fn start(s: Selection<'a>, width: usize, count: usize) -> Positions<'a> {
        let mut vars = Vec::with_capacity(width);
        vars.extend((s.vars.iter().cloned()).zip((0..).map(|j| (0, j))));
        let mut inputs = Vec::with_capacity(count);
        inputs.push((s.sources, s.rows));
        Positions {
            vars,
            inputs,
            len: s.len,
        }
    }

    fn var(&self, v: &str) -> Option<usize> {
        self.vars.iter().position(|(c, _)| **c == *v)
    }

    /// Where variable `k` reads: its source column, and the row of it
    /// each accumulator row reads (`None`: row `i` reads row `i`).
    fn source(&self, k: usize) -> (&Arc<Column>, Option<&[u32]>) {
        let (i, j) = self.vars[k].1;
        let (sources, rows) = &self.inputs[i];
        (&sources[j], rows.as_deref())
    }

    /// Variables `idx` as key columns, read where they keep their rows.
    fn keys(&self, idx: impl Iterator<Item = usize>) -> Keys<'_> {
        let cols = idx.map(|k| self.source(k)).map(|(c, rows)| (&**c, rows));
        Keys::new(cols, self.len)
    }

    /// Variables `idx`, gathered, as a relation, and the payload bytes
    /// that gathering made resident.
    fn gather(&self, idx: impl Iterator<Item = usize> + Clone) -> (CRel, u64) {
        let n = idx.clone().count();
        let (mut names, mut columns) = (Vec::with_capacity(n), Vec::with_capacity(n));
        let mut fresh_bytes = 0;
        for k in idx {
            names.push(self.vars[k].0.clone());
            let (source, rows) = self.source(k);
            columns.push(match read_source(source, rows) {
                Cow::Borrowed(col) => Arc::clone(col),
                Cow::Owned(col) => {
                    fresh_bytes += col.payload_bytes() as u64;
                    col
                }
            });
        }
        (CRel::new(names, columns, self.len), fresh_bytes)
    }

    /// Joins `next` in: by index seek where that pays ([`join_vertex`]),
    /// else what `natural_join(acc, next)` does, on the key columns alone.
    fn join(&mut self, mut next: Selection<'a>, budget: &mut Budget) -> Result<(), EvalError> {
        if let Some(seek) = self.seek_key(&next) {
            return self.seek(next, seek, budget);
        }
        crate::fail_point!("cops::join");
        budget.join_stats().add_hash_build();
        next.pay(budget)?;
        let acc_builds = self.len <= next.len;
        // `(accumulator variable, next variable)` per key column, in the
        // build side's column order.
        let keys: Vec<(usize, usize)> = if acc_builds {
            (0..self.vars.len())
                .filter_map(|k| Some((k, next.vars.iter().position(|v| *v == self.vars[k].0)?)))
                .collect()
        } else {
            self.shared(&next)
        };
        let key_idx = iota(keys.len());
        let (build_n, probe_n) = if acc_builds {
            (self.len, next.len)
        } else {
            (next.len, self.len)
        };
        if join_build_reservation(budget, &key_idx, build_n, probe_n)? {
            let all = 0..self.vars.len();
            let joined = grace_join(&self.gather(all).0, &next.gather().0, budget)?;
            let (width, count) = (self.vars.capacity(), self.inputs.capacity());
            *self = Positions::start(Selection::from(joined), width, count);
            return Ok(());
        }

        // Both sides' keys are read where they keep their rows.
        let acc_keys = self.keys(keys.iter().map(|&(k, _)| k));
        let next_keys = next.keys(keys.iter().map(|&(k, _)| &self.vars[k].0));
        let (build, probe) = if acc_builds {
            (&acc_keys, &next_keys)
        } else {
            (&next_keys, &acc_keys)
        };
        let result = join_pairs(build, probe, budget);
        budget.uncharge_bytes(join_build_bytes(build_n, probe_n));
        let (build_idx, probe_idx) = result?;
        let (acc_idx, mut next_rows) = if acc_builds {
            (build_idx, probe_idx)
        } else {
            (probe_idx, build_idx)
        };
        if let Some(rows) = &next.rows {
            for k in &mut next_rows {
                *k = rows[*k as usize];
            }
        }
        // A key column holds the build side's cells, as in `natural_join`:
        // equal keys may still differ in bits (`0.0` and `-0.0`, NaN
        // payloads).
        self.append(next, acc_idx, next_rows, !acc_builds, budget)
    }

    /// `(accumulator variable, next variable)` per variable they share, in
    /// `next`'s order.
    fn shared(&self, next: &Selection) -> Vec<(usize, usize)> {
        (0..next.vars.len())
            .filter_map(|j| Some((self.var(&next.vars[j])?, j)))
            .collect()
    }

    /// The index to seek `next` with: the first of its indexed variables
    /// the accumulator holds, when the accumulator is at least
    /// [`SEEK_MARGIN`] times smaller than `next`'s selection.
    fn seek_key(&self, next: &Selection) -> Option<(usize, Arc<dyn JoinIndex>)> {
        if self.len.saturating_mul(SEEK_MARGIN) > next.len {
            return None;
        }
        (next.indexes.iter())
            .find(|(j, _)| self.var(&next.vars[*j]).is_some())
            .map(|(j, index)| (*j, Arc::clone(index)))
    }

    /// Joins `next` in by probing `index`, which covers `next`'s variable
    /// `j`: one probe per distinct accumulator key. A fetched row is kept
    /// only if `next` selects it and it equals the accumulator row on every
    /// shared variable (typed compare, NULL matching NULL as in the hash
    /// join), so the index need only return a superset of the matches.
    /// Charges each pair like the hash join and nothing for `next`'s scan;
    /// key columns keep the accumulator's cells. Pairs come out
    /// accumulator-major, ascending row id within an accumulator row.
    fn seek(
        &mut self,
        next: Selection<'a>,
        (j, index): (usize, Arc<dyn JoinIndex>),
        budget: &mut Budget,
    ) -> Result<(), EvalError> {
        crate::fail_point!("cops::seek");
        budget.join_stats().add_index_seek();
        let keys = self.shared(&next);
        let acc_keys = self.keys(keys.iter().map(|&(k, _)| k));
        let next_cols = keys.iter().map(|&(_, n)| (&**next.sources[n], None));
        let next_keys = Keys::new(next_cols, next.sources[j].len());
        let (probe_col, probe_rows) =
            acc_keys.cols[keys.iter().position(|&(_, n)| n == j).expect("shared")];
        let reader = dict::reader();
        let agrees = |i: usize, r: u32| acc_keys.eq_at(i, &next_keys, r as usize, &reader);
        // Per distinct key, its kept rows as a range of `fetched`.
        let mut probed: FxHashMap<Vec<u8>, Range<usize>> = FxHashMap::default();
        let mut fetched: Vec<u32> = Vec::new();
        let mut key = Vec::new();
        let mut sink = PairSink::with_capacity(self.len);
        for rows in blocks(0..self.len) {
            for i in rows {
                key.clear();
                encode_cell(probe_col, keyplan::row(probe_rows, i), &reader, &mut key);
                let hits = match probed.get(&key) {
                    Some(hits) => hits.clone(),
                    None => {
                        let lo = fetched.len();
                        fetched.extend(index.seek(&key)?.into_iter().filter(|&r| next.keeps(r)));
                        probed.insert(key.clone(), lo..fetched.len());
                        lo..fetched.len()
                    }
                };
                for &r in &fetched[hits] {
                    if agrees(i, r) {
                        sink.push(i as u32, r, budget)?;
                    }
                }
            }
            sink.end_block(budget)?;
        }
        drop(reader);
        let (acc_idx, next_rows) = sink.finish();
        self.append(next, acc_idx, next_rows, false, budget)
    }

    /// Makes row `i` of the accumulator its old row `acc_idx[i]` joined with
    /// row `next_rows[i]` of `next`'s sources. A variable both hold reads
    /// `next`'s cell where `next_keys`, else the accumulator's.
    fn append(
        &mut self,
        next: Selection<'a>,
        acc_idx: Vec<u32>,
        next_rows: Vec<u32>,
        next_keys: bool,
        budget: &mut Budget,
    ) -> Result<(), EvalError> {
        self.len = acc_idx.len();
        for rows in self.inputs.iter_mut().filter_map(|(_, rows)| rows.as_mut()) {
            *rows = acc_idx.iter().map(|&k| rows[k as usize]).collect();
        }
        // Only the input the accumulator started from can still read its
        // rows unlisted: `acc_idx` becomes its list.
        if let Some((_, rows @ None)) = self.inputs.first_mut() {
            *rows = Some(acc_idx);
        }
        let input = self.inputs.len();
        for (j, v) in next.vars.iter().enumerate() {
            match self.var(v) {
                Some(k) if next_keys => self.vars[k].1 = (input, j),
                Some(_) => {}
                None => self.vars.push((v.clone(), (input, j))),
            }
        }
        self.inputs.push((next.sources, Some(next_rows)));
        budget.charge_bytes(POS_BYTES * (self.len * self.inputs.len()) as u64)
    }

    /// [`project_onto_available`] over the accumulator, gathering only the
    /// columns that survive; counted, each join row counts 1.
    fn finish(self, chi: &[Name], counted: bool, budget: &mut Budget) -> Result<CRel, EvalError> {
        let avail = chi.iter().filter_map(|v| self.var(v));
        let keep_all = avail.clone().count() == self.vars.len();
        let (rel, fresh_bytes) = if keep_all {
            self.gather(0..self.vars.len())
        } else {
            self.gather(avail)
        };
        budget.charge_bytes(fresh_bytes)?;
        let all = || (0..rel.cols().len()).collect();
        match (keep_all, counted) {
            // Joins of duplicate-free inputs are duplicate-free.
            (true, false) => Ok(rel),
            (true, true) => {
                budget.charge_bytes(8 * rel.len() as u64)?;
                let ones = vec![1; rel.len()];
                Ok(rel.with_counts(ones))
            }
            (false, false) => project_columns(&rel, all(), true, budget),
            (false, true) => sum_counts(&rel, all(), None, budget),
        }
    }
}

/// The pair lists a join kernel emits, settled against the budget by
/// the block: a kernel calls [`PairSink::end_block`] after every
/// `BLOCK` probe rows, and [`PairSink::push`] settles by itself once
/// `BLOCK` pairs are outstanding. The totals equal one `charge(1)` +
/// `charge_bytes(PAIR_BYTES)` per pair; a limit trips at most one block
/// of pairs later than it would pair by pair, and a probe that emits
/// nothing still polls the deadline and the cancellation token.
struct PairSink {
    build_idx: Vec<u32>,
    probe_idx: Vec<u32>,
    /// Pairs already charged.
    settled: usize,
}

impl PairSink {
    /// A sink for a probe side of `probe_rows` rows: room for one pair per
    /// probe row, up to a block of them.
    fn with_capacity(probe_rows: usize) -> PairSink {
        let n = probe_rows.min(BLOCK);
        PairSink {
            build_idx: Vec::with_capacity(n),
            probe_idx: Vec::with_capacity(n),
            settled: 0,
        }
    }

    #[inline]
    fn push(&mut self, bi: u32, pi: u32, budget: &mut Budget) -> Result<(), EvalError> {
        self.build_idx.push(bi);
        self.probe_idx.push(pi);
        if self.build_idx.len() - self.settled >= BLOCK {
            self.settle(budget)?;
        }
        Ok(())
    }

    /// Appends `(head, j)` for each position `j` of the probe block `at`
    /// whose packed key's chain in `table` starts at a row `head` — one
    /// probe block against duplicate-free build keys — in the loop that
    /// packs the keys, without a branch per row: every pair is written,
    /// and the kept count advances by whether its head is a row. At most
    /// one block of pairs, settled by the caller's [`PairSink::end_block`].
    fn push_heads(&mut self, plan: &KeyPlan, table: &DirectTable, probe: &Keys, at: Range<usize>) {
        let base = self.build_idx.len();
        self.build_idx.resize(base + at.len(), 0);
        self.probe_idx.resize(base + at.len(), 0);
        let (bs, ps) = (&mut self.build_idx[base..], &mut self.probe_idx[base..]);
        let mut n = 0;
        let Ok(()) = plan.try_keys(probe, at, |j, k| {
            let bi = table.head(k);
            (bs[n], ps[n]) = (bi, j as u32);
            n += usize::from(bi != CHAIN_END);
            Ok::<_, Infallible>(())
        });
        self.build_idx.truncate(base + n);
        self.probe_idx.truncate(base + n);
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

/// Matching `(build, probe)` position pairs of an in-memory join on the
/// keys `build` and `probe`, from the kernel the key calls for (DESIGN.md
/// §3.8, "Key plans"): the direct table when the packed key range fits
/// in the reservation, else the hashed table (behind range bitmaps when
/// the key has a plan). Every kernel emits the same sequence:
/// probe-major, ascending build row.
fn join_pairs(build: &Keys, probe: &Keys, budget: &mut Budget) -> Result<PairLists, EvalError> {
    let reserved = join_build_bytes(build.len, probe.len);
    let plan = KeyPlan::resolve(build, probe);
    if let Some(plan) = &plan {
        let fits = |range| DirectTable::byte_estimate(build.len, range);
        if let Some(range) = plan.range_fitting(reserved, fits) {
            return join_pairs_direct(plan, range, build, probe, budget);
        }
    }
    // The bitmaps take the place of the probe side's hash array, which
    // the filtered probe never materializes.
    let held = join_build_bytes(build.len, 0);
    let plan = plan.filter(|p| {
        p.range_bitmap_bytes()
            .and_then(|b| b.checked_add(held))
            .is_some_and(|b| b <= reserved)
    });
    join_pairs_hashed(build, probe, plan, budget)
}

/// Direct-table kernel: one pass over the build side fills a table
/// indexed by packed key, one pass over the probe side walks it. No
/// hashes, no candidate verification. When no build key repeats — a
/// primary key — every chain is one row long and a probe block writes its
/// pairs without a branch per row ([`PairSink::push_heads`]); otherwise
/// each probe row walks its chain.
fn join_pairs_direct(
    plan: &KeyPlan,
    range: usize,
    build: &Keys,
    probe: &Keys,
    budget: &mut Budget,
) -> Result<PairLists, EvalError> {
    let mut table = DirectTable::new(build.len, range);
    let mut repeats = false;
    let Ok(()) = plan.try_keys(build, 0..build.len, |j, k| {
        repeats |= table.push_front(k, j as u32);
        Ok::<_, Infallible>(())
    });
    let mut sink = PairSink::with_capacity(probe.len);
    for rows in blocks(0..probe.len) {
        if !repeats {
            sink.push_heads(plan, &table, probe, rows);
        } else {
            plan.try_keys(probe, rows, |j, k| {
                // Chains descend: a probe row's pairs, reversed, ascend.
                let first = sink.build_idx.len();
                let mut bi = table.head(k);
                while bi != CHAIN_END {
                    sink.push(bi, j as u32, budget)?;
                    bi = table.next_row(bi);
                }
                sink.build_idx[first..].reverse();
                Ok(())
            })?;
        }
        sink.end_block(budget)?;
    }
    Ok(sink.finish())
}

/// Hashed kernel: matching `(build, probe)` position pairs in
/// probe-major order (ascending build chain within a probe row). With a
/// key plan, one exact bitmap per key column says which probe rows can
/// match at all, and only those are hashed and looked up.
fn join_pairs_hashed(
    build: &Keys,
    probe: &Keys,
    prefilter: Option<KeyPlan>,
    budget: &mut Budget,
) -> Result<PairLists, EvalError> {
    let reader = dict::reader();
    let build_hashes = build.hashes(&reader);
    let table = ChainTable::build(build.len, |i| build_hashes[i]);
    let mut sink = PairSink::with_capacity(probe.len);
    let key_eq = |bi: usize, pi: usize| build.eq_at(bi, probe, pi, &reader);
    match prefilter {
        None => {
            let probe_hashes = probe.hashes(&reader);
            for (b, block) in probe_hashes.chunks(BLOCK).enumerate() {
                let rows = ((b * BLOCK) as u32..).zip(block.iter().copied());
                probe_hashed(&table, rows, key_eq, &mut sink, budget)?;
            }
        }
        Some(plan) => {
            let maps = plan.range_bitmaps(build);
            let mut sel = vec![0u32; BLOCK.min(probe.len)];
            let mut hashes: Vec<u64> = Vec::with_capacity(sel.len());
            for rows in blocks(0..probe.len) {
                let n = plan.survivors(&maps, probe, rows, &mut sel);
                probe.hashes_at(&sel[..n], &mut hashes, &reader);
                let rows = sel[..n].iter().copied().zip(hashes.iter().copied());
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

/// Semijoin `a ⋉ b`: the rows of `a` (in input order) with at least one
/// match in `b` on the shared variables. With no shared variables,
/// returns `a` unchanged if `b` is non-empty, else the empty relation.
///
/// When `b` is counted ([`COUNT`]) it still adds no row and no column to
/// `a` but a count: each kept row of `a` stands for its own count (1 if
/// `a` is not counted) times the summed counts of its partners in `b`
/// (past `u64`: [`EvalError::CountOverflow`]) — `a` joined with `b`
/// projected onto the shared variables, in `a`'s row order, from `b`'s
/// counts summed per key (`partner_counts`).
pub fn semijoin(a: &CRel, b: &CRel, budget: &mut Budget) -> Result<CRel, EvalError> {
    crate::fail_point!("cops::semijoin");
    let counts = b.counts();
    let layout = join_layout(a, b);
    let (a_shared, b_shared, _) = layout.parts();
    if a_shared.is_empty() && counts.is_none() {
        return if b.is_empty() {
            Ok(CRel::empty(a.cols().to_vec()))
        } else {
            // The survivors are `a`'s own columns, shared: tuples are
            // charged, no new bytes are resident.
            budget.charge(a.len() as u64)?;
            Ok(a.clone())
        };
    }

    // Build table + both hash arrays, and a counted `b`'s first rows and
    // sums (12 B a row at most), released when the kernel returns (the
    // reducer side is expected to fit).
    let table_bytes =
        join_build_bytes(b.len(), a.len()) + 12 * counts.map_or(0, |c| c.len()) as u64;
    budget.reserve_bytes(table_bytes)?;
    let a_keys = Keys::of(a, a_shared);
    let kept = match counts {
        None => {
            let keep = KeySet::build(b, b_shared, [&a_keys], table_bytes).members(&a_keys);
            // Row by row, so a limit trips at the very row that crosses it.
            let charged = keep.iter().try_for_each(|_| {
                budget.charge(1)?;
                budget.charge_bytes(4)
            });
            charged.map(|()| (keep, Vec::new()))
        }
        Some(counts) => partner_counts(&a_keys, b, b_shared, counts, table_bytes, budget),
    };
    budget.uncharge_bytes(table_bytes);
    let (keep, by) = kept?;
    let mut cols = a.cols().to_vec();
    let mut columns: Vec<Arc<Column>> = (a.columns().iter())
        .map(|c| Arc::new(c.gather(&keep)))
        .collect();
    if counts.is_some() {
        let own = |i: u32| a.counts().map_or(1, |c| c[i as usize] as u64);
        let product = (keep.iter().zip(by))
            .map(|(&i, m)| own(i).checked_mul(m).map(|p| p as i64))
            .collect::<Option<Vec<i64>>>()
            .ok_or(EvalError::CountOverflow)?;
        let product = Arc::new(Column::from_ints(product));
        match a.col_index(COUNT) {
            Some(i) => columns[i] = product,
            None => {
                cols.push(COUNT.into());
                columns.push(product);
            }
        }
    }
    let out = CRel::new(cols, columns, keep.len());
    budget.charge_bytes(crel_payload_bytes(&out))?;
    Ok(out)
}

/// The positions of `a_keys` with a partner in `b`'s columns `b_shared`,
/// ascending, each with its partners' summed `counts`: a [`GroupIds`]
/// over `b`'s key (in `reserved` bytes) sums each group's counts, then
/// `a_keys` joins the groups' first rows ([`join_pairs`]: one partner at
/// most, each pair charged as a join charges it).
fn partner_counts(
    a_keys: &Keys,
    b: &CRel,
    b_shared: &[usize],
    counts: &[i64],
    reserved: u64,
    budget: &mut Budget,
) -> Result<(Vec<u32>, Vec<u64>), EvalError> {
    let reader = dict::reader();
    let mut ids = GroupIds::new(b, b_shared, reserved, &reader);
    let (mut first_row, mut sums) = (Vec::new(), Vec::new());
    for rows in blocks(0..b.len()) {
        ids.assign(rows, &mut first_row, &reader, |i, g| {
            add_count(&mut sums, g, counts[i] as u64)
        })?;
    }
    drop((ids, reader)); // `join_pairs` takes its own dictionary reader.
    let firsts = b_shared.iter().map(|&c| (b.column(c), Some(&*first_row)));
    let (groups, keep) = join_pairs(&Keys::new(firsts, first_row.len()), a_keys, budget)?;
    Ok((keep, groups.iter().map(|&g| sums[g as usize]).collect()))
}

/// Adds `count` to group `g`'s sum, opening the sum when `g` is new.
fn add_count(sums: &mut Vec<u64>, g: u32, count: u64) -> Result<(), EvalError> {
    if g as usize == sums.len() {
        sums.push(0);
    }
    let sum = &mut sums[g as usize];
    *sum = sum.checked_add(count).ok_or(EvalError::CountOverflow)?;
    Ok(())
}

/// The key tuples a relation holds — the reducer side of [`semijoin`] and
/// [`narrow`]. A bitmap over the packed key range when the key has a plan
/// that every probe side admits and the bitmap fits in the reservation
/// (no table, no hashes); else the hashed table, candidates verified by
/// typed cell comparison.
enum KeySet<'r> {
    Dense(KeyPlan, Bitmap),
    Hashed { keys: Keys<'r>, table: ChainTable },
}

impl<'r> KeySet<'r> {
    /// The keys of `rel`'s columns `idx`, to be probed by `probes` (each
    /// paired with `idx` by position), in at most `reserved` bytes.
    fn build<'p>(
        rel: &'r CRel,
        idx: &[usize],
        probes: impl IntoIterator<Item = impl Borrow<Keys<'p>>>,
        reserved: u64,
    ) -> KeySet<'r> {
        let keys = Keys::of(rel, idx);
        // The plan depends on `rel` alone; each probe only has to admit it.
        let plan = (probes.into_iter())
            .map(|probe| KeyPlan::resolve(&keys, probe.borrow()))
            .reduce(Option::and)
            .flatten();
        let dense = plan.and_then(|plan| {
            let range = plan.range_fitting(reserved, Bitmap::byte_estimate)?;
            let mut set = Bitmap::new(range as u64);
            let Ok(()) = plan.try_keys(&keys, 0..keys.len, |_, k| {
                set.insert(k);
                Ok::<_, Infallible>(())
            });
            Some(KeySet::Dense(plan, set))
        });
        dense.unwrap_or_else(|| {
            let hashes = keys.hashes(&dict::reader());
            let table = ChainTable::build(rel.len(), |i| hashes[i]);
            KeySet::Hashed { keys, table }
        })
    }

    /// The positions of `probe` that hold one of the set's keys,
    /// ascending; on a dense set, written by the loop that packs the keys,
    /// without a branch per row.
    fn members(&self, probe: &Keys) -> Vec<u32> {
        match self {
            KeySet::Dense(plan, set) => {
                let (mut kept, mut n) = (vec![0u32; probe.len], 0);
                let Ok(()) = plan.try_keys(probe, 0..probe.len, |j, k| {
                    kept[n] = j as u32;
                    n += usize::from(set.contains(k));
                    Ok::<_, Infallible>(())
                });
                kept.truncate(n);
                kept
            }
            KeySet::Hashed { keys, table } => {
                let reader = dict::reader();
                let hashes = probe.hashes(&reader);
                let mut kept: Vec<u32> = Vec::with_capacity(probe.len);
                kept.extend((0..probe.len).filter_map(|pi| {
                    let partner = |ri| probe.eq_at(pi, keys, ri, &reader);
                    table.any(hashes[pi], partner).then_some(pi as u32)
                }));
                kept
            }
        }
    }
}

/// The semijoin transfer of `P′` (DESIGN.md §3.4): narrows each of
/// `inputs` that shares a variable with `child` and for which
/// `worth(rows)` holds to its rows with a partner in `child` on the
/// shared variables — `input ⋉ child`, reading the input's key columns
/// through its selection, gathering nothing. Selections stay ascending.
///
/// One key set is built per distinct key (the shared variables, in
/// `child`'s column order), whoever probes it. It charges no tuples, and
/// its bytes — the table and the hash arrays a semijoin would hold — are
/// reserved while it lives; where that reservation is denied the inputs
/// keep their rows. Rows removed are counted in
/// [`crate::error::JoinStats::transfer_removed`].
pub fn narrow(
    inputs: &mut [Selection<'_>],
    child: &CRel,
    worth: impl Fn(usize) -> bool,
    budget: &mut Budget,
) {
    // `(key columns of child, inputs probing them)`.
    let mut keys: Vec<(Vec<usize>, Vec<usize>)> = Vec::new();
    for (i, s) in inputs.iter().enumerate() {
        if s.is_empty() || !worth(s.len()) {
            continue;
        }
        let key: Vec<usize> = (0..child.cols().len())
            .filter(|&c| s.vars.contains(&child.cols()[c]))
            .collect();
        if key.is_empty() {
            continue;
        }
        match keys.iter_mut().find(|(k, _)| *k == key) {
            Some((_, probes)) => probes.push(i),
            None => keys.push((key, vec![i])),
        }
    }
    for (key, members) in keys {
        let longest = members.iter().map(|&i| inputs[i].len).max().unwrap_or(0);
        let reserved = join_build_bytes(child.len(), longest);
        if !budget.try_reserve_bytes(reserved) {
            continue;
        }
        let names = || key.iter().map(|&c| &child.cols()[c]);
        let probes = members.iter().map(|&i| inputs[i].keys(names()));
        let set = KeySet::build(child, &key, probes, reserved);
        for &i in &members {
            let kept = set.members(&inputs[i].keys(names()));
            let removed = inputs[i].retain(kept);
            budget.join_stats().add_transfer_removed(removed as u64);
        }
        budget.uncharge_bytes(reserved);
    }
}

/// Projects `a` onto `vars` (which must all exist). Distinct mode keeps
/// the first occurrence of each row, in input order, deduplicating via
/// per-row key hashes with typed verification; bag mode shares `a`'s
/// columns (no per-cell work, no bytes charged).
///
/// A counted input ([`COUNT`]) gives a counted output: its count column
/// is kept whether `vars` names it or not, and in distinct mode each kept
/// row's count is the sum of the counts of the rows it stands for.
pub fn project<S: AsRef<str>>(
    a: &CRel,
    vars: &[S],
    distinct: bool,
    budget: &mut Budget,
) -> Result<CRel, EvalError> {
    let idx: Vec<usize> = vars
        .iter()
        .map(|v| {
            let v = v.as_ref();
            a.col_index(v)
                .ok_or_else(|| EvalError::UnknownVariable(v.to_string()))
        })
        .collect::<Result<_, _>>()?;
    project_columns(a, idx, distinct, budget)
}

/// [`project`] onto `a`'s columns `idx`, named as in `a`.
fn project_columns(
    a: &CRel,
    mut idx: Vec<usize>,
    distinct: bool,
    budget: &mut Budget,
) -> Result<CRel, EvalError> {
    crate::fail_point!("cops::project");
    if let Some(c) = a.col_index(COUNT) {
        idx.retain(|&i| i != c);
        if distinct {
            return sum_counts(a, idx, a.counts(), budget);
        }
        idx.push(c);
    }
    let names = idx.iter().map(|&c| a.cols()[c].clone()).collect();
    if distinct {
        let keep = group_rows(a, &idx, 0, budget, |_, _| Ok(()))?;
        let columns = idx
            .iter()
            .map(|&c| Arc::new(a.column(c).gather(&keep)))
            .collect();
        let out = CRel::new(names, columns, keep.len());
        budget.charge_bytes(crel_payload_bytes(&out))?;
        Ok(out)
    } else {
        budget.charge(a.len() as u64)?;
        let columns = idx.iter().map(|&c| Arc::clone(&a.columns()[c])).collect();
        Ok(CRel::new(names, columns, a.len()))
    }
}

/// The counted projection of `a` onto its columns `idx`: the distinct
/// rows, each kept at its first occurrence, in input order, with a
/// [`COUNT`] column holding the summed `counts` of the rows each stands
/// for (every row counts 1 without `counts`). Charges what the distinct
/// projection charges, and each group's 8-byte sum when the group opens:
/// the sums become the [`COUNT`] column, whose bytes are not charged
/// again. A sum past `u64` is [`EvalError::CountOverflow`].
fn sum_counts(
    a: &CRel,
    idx: Vec<usize>,
    counts: Option<&[i64]>,
    budget: &mut Budget,
) -> Result<CRel, EvalError> {
    let mut sums: Vec<u64> = Vec::with_capacity(a.len().min(BLOCK));
    let keep = group_rows(a, &idx, 8, budget, |i, g| {
        add_count(&mut sums, g, counts.map_or(1, |c| c[i] as u64))
    })?;
    let names = idx.iter().map(|&c| a.cols()[c].clone()).collect();
    let columns = (idx.iter()).map(|&c| Arc::new(a.column(c).gather(&keep)));
    let out = CRel::new(names, columns.collect(), keep.len());
    budget.charge_bytes(crel_payload_bytes(&out))?;
    Ok(out.with_counts(sums.into_iter().map(|s| s as i64).collect()))
}

/// The bytes a distinct projection of `n` rows reserves for its group
/// table: the key hashes and `ChainTable::byte_estimate(n)`, room for a
/// hashed [`GroupIds`] of `2n` slots, which then never grows.
pub(crate) fn distinct_bytes(n: usize) -> u64 {
    8 * n as u64 + ChainTable::byte_estimate(n)
}

/// The first row of each group of `a`'s rows by their key over `idx`,
/// in input order — the rows a distinct projection keeps. Each group is
/// charged one tuple and `4 + state_bytes` bytes when its first row
/// comes, before `each` sees that row ([`GroupIds::assign`]). The group
/// table lives in the [`distinct_bytes`] reserved up front and released
/// once the groups are known.
fn group_rows(
    a: &CRel,
    idx: &[usize],
    state_bytes: u64,
    budget: &mut Budget,
    mut each: impl FnMut(usize, u32) -> Result<(), EvalError>,
) -> Result<Vec<u32>, EvalError> {
    let map_bytes = distinct_bytes(a.len());
    budget.reserve_bytes(map_bytes)?;
    let reader = dict::reader();
    let mut ids = GroupIds::new(a, idx, map_bytes, &reader);
    let mut first_row: Vec<u32> = Vec::with_capacity(a.len().min(BLOCK));
    let mut groups = 0;
    let result = blocks(0..a.len()).try_for_each(|rows| {
        ids.assign(rows, &mut first_row, &reader, |i, g| {
            if g == groups {
                groups += 1;
                budget.charge(1)?;
                budget.charge_bytes(4 + state_bytes)?;
            }
            each(i, g)
        })
    });
    budget.uncharge_bytes(map_bytes);
    result.map(|()| first_row)
}

/// A slot of a group table that holds no group.
const NO_GROUP: u32 = u32::MAX;

/// The engine's one table from a key to its group: the group of each row
/// of a relation by its key columns, groups numbered in the order their
/// first rows come. The distinct projection keeps each group's first row,
/// the counted projection ([`COUNT`]) and the counted [`semijoin`] sum
/// each group's counts, and the grouping kernel of [`crate::aggregate`] feeds each group's aggregates.
/// (One per call, on the stack: the key plan's size is not worth a box.)
#[allow(clippy::large_enum_variant)]
pub(crate) enum GroupIds<'r> {
    /// No key column: one group.
    One,
    /// The key columns have a key plan whose packed range fits the
    /// caller's reservation at 4 bytes a key: a direct table from packed
    /// key to group.
    Direct {
        plan: KeyPlan,
        keys: Keys<'r>,
        table: Vec<u32>,
    },
    /// Any other key: every row's key hash, and an open-addressed table
    /// of `(hash, group)` probed linearly, at most half full; a candidate
    /// is verified against the group's first row.
    Hashed {
        keys: Keys<'r>,
        hashes: Vec<u64>,
        slots: Vec<(u64, u32)>,
    },
}

impl<'r> GroupIds<'r> {
    /// The table for `rel`'s key columns `idx`, sized from the `reserved`
    /// bytes the caller holds for it. The hashed table starts with the
    /// slots the reservation holds past the key hashes (8 bytes a row) — a
    /// power of two, at least 16, and no more than every row opening a
    /// group needs — and doubles when half full.
    pub(crate) fn new(
        rel: &'r CRel,
        idx: &[usize],
        reserved: u64,
        reader: &DictReader,
    ) -> GroupIds<'r> {
        let keys = Keys::of(rel, idx);
        if keys.cols.is_empty() {
            return GroupIds::One;
        }
        let direct = KeyPlan::resolve(&keys, &keys).and_then(|plan| {
            let range = plan.range_fitting(reserved, |r| r.checked_mul(4))?;
            Some((plan, range))
        });
        match direct {
            Some((plan, range)) => GroupIds::Direct {
                plan,
                keys,
                table: vec![NO_GROUP; range],
            },
            None => {
                let n = keys.len;
                let slot = std::mem::size_of::<(u64, u32)>() as u64;
                let held = reserved.saturating_sub(8 * n as u64) / slot;
                let fits = ((held + 1).next_power_of_two() / 2) as usize;
                let cap = fits.min((2 * n).next_power_of_two()).max(16);
                GroupIds::Hashed {
                    hashes: keys.hashes(reader),
                    keys,
                    slots: vec![(0, NO_GROUP); cap],
                }
            }
        }
    }

    /// Hands `each` the group of every row of `rows` (at most one
    /// [`BLOCK`]), in order, opening the groups rows have first: a new
    /// group's id is the number of groups before it, and its first row is
    /// appended to `first_row` before `each` sees it. Stops at `each`'s
    /// first error.
    pub(crate) fn assign(
        &mut self,
        rows: Range<usize>,
        first_row: &mut Vec<u32>,
        reader: &DictReader,
        mut each: impl FnMut(usize, u32) -> Result<(), EvalError>,
    ) -> Result<(), EvalError> {
        match self {
            GroupIds::One => {
                if first_row.is_empty() && !rows.is_empty() {
                    first_row.push(rows.start as u32);
                }
                rows.into_iter().try_for_each(|i| each(i, 0))
            }
            GroupIds::Direct { plan, keys, table } => plan.try_keys(keys, rows, |i, k| {
                let g = &mut table[k as usize];
                if *g == NO_GROUP {
                    *g = first_row.len() as u32;
                    first_row.push(i as u32);
                }
                each(i, *g)
            }),
            GroupIds::Hashed {
                keys,
                hashes,
                slots,
            } => rows.into_iter().try_for_each(|i| {
                let h = hashes[i];
                let first = |g: u32| first_row[g as usize] as usize;
                let s = slot(slots, h, |g| keys.eq_at(i, keys, first(g), reader));
                if slots[s].1 == NO_GROUP {
                    slots[s] = (h, first_row.len() as u32);
                    first_row.push(i as u32);
                }
                let g = slots[s].1;
                if 2 * first_row.len() > slots.len() {
                    grow(slots);
                }
                each(i, g)
            }),
        }
    }
}

/// The slot of an open-addressed group table holding the group whose key
/// hash is `h` and for which `is_key` holds, or the empty slot where that
/// group would go.
fn slot(slots: &[(u64, u32)], h: u64, is_key: impl Fn(u32) -> bool) -> usize {
    let mask = slots.len() - 1;
    let mut s = h as usize & mask;
    loop {
        let (sh, g) = slots[s];
        if g == NO_GROUP || (sh == h && is_key(g)) {
            return s;
        }
        s = (s + 1) & mask;
    }
}

/// Doubles an open-addressed group table, re-placing its groups.
fn grow(slots: &mut Vec<(u64, u32)>) {
    let old = std::mem::replace(slots, vec![(0, NO_GROUP); 2 * slots.len()]);
    for (h, g) in old.into_iter().filter(|&(_, g)| g != NO_GROUP) {
        let s = slot(slots, h, |_| false);
        slots[s] = (h, g);
    }
}

/// Projects onto the intersection of `a`'s columns and `vars`, with
/// distinct rows (a counted input keeps its counts, summed: [`project`]).
/// This is the "project onto χ(p)" step of decomposition evaluation,
/// where χ(p) may mention variables `a` does not carry yet.
///
/// When the projection keeps every column it is the identity: joins of
/// duplicate-free inputs are duplicate-free, so the (expensive) dedup pass
/// is skipped entirely and `a` comes back as it went in. (A counted
/// relation may repeat a row: it then stands for the bag its counts say,
/// whether or not its rows are merged.)
pub fn project_onto_available(
    a: CRel,
    vars: &[Name],
    budget: &mut Budget,
) -> Result<CRel, EvalError> {
    if (a.cols().iter()).all(|c| **c == *COUNT || vars.contains(c)) {
        return Ok(a);
    }
    let avail = vars.iter().filter_map(|v| a.col_index(v)).collect();
    project_columns(&a, avail, true, budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;
    use crate::vrel::{nested_loop_join, VRelation};

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
    fn join_matches_nested_loop_reference() {
        let a = vrel(&["x", "y"], &[&[1, 10], &[2, 20], &[3, 20]]);
        let b = vrel(&["y", "z"], &[&[10, 100], &[20, 200], &[20, 201]]);
        let mut b1 = Budget::unlimited();
        let mut b2 = Budget::unlimited();
        let reference = nested_loop_join(&a, &b, &mut b1).unwrap();
        let col = natural_join(&CRel::from_vrel(&a), &CRel::from_vrel(&b), &mut b2)
            .unwrap()
            .to_vrel();
        assert_eq!(col.cols(), reference.cols());
        assert_eq!(col.sorted_rows(), reference.sorted_rows());
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
        assert_eq!(ab.to_vrel().cols(), ["x", "y"]);
        assert_eq!(ba.to_vrel().cols(), ["y", "x"]);
        assert!(ab.to_vrel().set_eq(&ba.to_vrel()));
    }

    #[test]
    fn semijoin_keeps_matching_rows_in_input_order() {
        let a = crel(&["x", "y"], &[&[3, 30], &[1, 10], &[2, 20], &[4, 30]]);
        let b = crel(&["y", "z"], &[&[10, 0], &[30, 0], &[30, 1]]);
        let mut budget = Budget::unlimited();
        let s = semijoin(&a, &b, &mut budget).unwrap();
        assert_eq!(
            s.to_vrel(),
            vrel(&["x", "y"], &[&[3, 30], &[1, 10], &[4, 30]])
        );
        assert_eq!(budget.charged(), 3);
    }

    /// The transfer keeps each input's rows with a partner in the child,
    /// ascending and composed with the rows it already kept; it leaves
    /// alone an input that shares no variable, one `worth` rejects, and
    /// every input when its reservation is denied; it charges nothing.
    #[test]
    fn narrow_keeps_partnered_rows_and_skips_when_denied() {
        let a = crel(
            &["x", "y"],
            &[&[3, 30], &[1, 10], &[2, 20], &[4, 30], &[5, 50]],
        );
        let other = crel(&["w"], &[&[1], &[2]]);
        let kept = |s: &Selection| s.clone().gather().0.to_vrel();
        let inputs = || vec![Selection::from(a.clone()), Selection::from(other.clone())];

        let mut budget = Budget::unlimited();
        let mut sel = inputs();
        narrow(
            &mut sel,
            &crel(&["y"], &[&[30], &[10], &[30]]),
            |_| true,
            &mut budget,
        );
        assert_eq!(
            kept(&sel[0]),
            vrel(&["x", "y"], &[&[3, 30], &[1, 10], &[4, 30]])
        );
        assert_eq!(kept(&sel[1]), other.to_vrel());
        // A second child over both variables, through the rows kept so far.
        narrow(
            &mut sel,
            &crel(&["y", "x"], &[&[30, 4], &[50, 5]]),
            |_| true,
            &mut budget,
        );
        assert_eq!(sel[0].rows, Some(vec![3]));
        assert_eq!(budget.join_stats().transfer_removed(), 4);
        assert_eq!((budget.charged(), budget.mem_used()), (0, 0));

        let child = crel(&["y"], &[&[30]]);
        let mut sel = inputs();
        narrow(&mut sel, &child, |rows| rows > 5, &mut budget);
        assert_eq!(sel[0].len(), 5);
        let mut tight = Budget::unlimited().with_mem_limit(64);
        narrow(&mut sel, &child, |_| true, &mut tight);
        assert_eq!(
            (sel[0].len(), tight.join_stats().transfer_removed()),
            (5, 0)
        );
        assert_eq!(tight.mem_used(), 0);
    }

    /// An input whose index covers a shared variable is sought once the
    /// accumulator is `SEEK_MARGIN` times smaller: the hash join's rows,
    /// one probe per distinct key, and no scan charge for the input.
    #[test]
    fn join_vertex_seeks_past_the_margin_once_per_key() {
        use crate::index::MemIndex;
        use crate::relation::Relation;
        use crate::scan::select_query_atom;
        use crate::schema::{ColumnType, Database, Schema};
        use htqo_cq::CqBuilder;
        use std::sync::atomic::{AtomicUsize, Ordering};

        #[derive(Debug)]
        struct Counted(MemIndex, AtomicUsize);
        impl JoinIndex for Counted {
            fn seek(&self, key: &[u8]) -> Result<Vec<u32>, EvalError> {
                self.1.fetch_add(1, Ordering::Relaxed);
                self.0.seek(key)
            }
            fn distinct_keys(&self) -> usize {
                self.0.distinct_keys()
            }
            fn entries(&self) -> usize {
                self.0.entries()
            }
        }
        let table = |rows: usize, key: fn(usize) -> i64| {
            let schema = Schema::new(&[("k", ColumnType::Int), ("p", ColumnType::Int)]);
            let mut rel = Relation::new(schema);
            for i in 0..rows {
                rel.push_row(vec![Value::Int(key(i)), Value::Int(i as i64)])
                    .unwrap();
            }
            rel
        };
        let fact_rows = 2 * SEEK_MARGIN;
        let mut db = Database::new();
        db.insert_table("probe", table(2, |_| 3));
        db.insert_table("fact", table(fact_rows, |i| (i % 7) as i64));
        let index = Arc::new(Counted(
            MemIndex::build(db.table("fact").unwrap(), 0),
            AtomicUsize::new(0),
        ));
        db.register_index("fact", "k", index.clone());
        let q = CqBuilder::new()
            .atom("probe", "probe", &[("k", "K"), ("p", "T")])
            .atom("fact", "fact", &[("k", "K"), ("p", "P")])
            .build();
        let chi = ["K", "T", "P"].map(Name::from);
        let run = |seek: bool| {
            let mut b = Budget::unlimited();
            let selected = (q.atom_ids())
                .map(|a| select_query_atom(&db, &q, a, seek, &mut b).unwrap())
                .collect();
            let out = join_vertex(selected, &chi, &mut b).unwrap();
            (out.to_vrel(), b.charged(), b.join_stats().index_seeks())
        };
        let (hashed, hash_charged, no_seeks) = run(false);
        let (sought, charged, seeks) = run(true);
        assert_eq!((no_seeks, seeks), (0, 1));
        assert_eq!(sought.sorted_rows(), hashed.sorted_rows());
        assert_eq!(index.1.load(Ordering::Relaxed), 1, "one probe per key");
        let pairs = sought.len() as u64;
        assert_eq!(
            pairs,
            2 * (0..fact_rows).filter(|i| i % 7 == 3).count() as u64
        );
        assert_eq!(charged, 2 + pairs);
        assert_eq!(hash_charged, 2 + fact_rows as u64 + pairs);
    }

    #[test]
    fn self_join_keeps_bag_multiplicities() {
        // 1 appears twice on each side → 4 combinations, plus 2 ⋈ 2.
        let a = crel(&["x"], &[&[1], &[1], &[2]]);
        let mut budget = Budget::unlimited();
        assert_eq!(natural_join(&a, &a, &mut budget).unwrap().len(), 5);
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

    /// A counted filter child multiplies in place: each row of `a` with a
    /// partner keeps its place and its count (1 for an uncounted `a`) is
    /// multiplied by its partners' summed count — the bag of projecting
    /// the child onto the shared variables and joining it, with no hash
    /// build and one tuple per kept row. A product or a sum past `u64` is
    /// `CountOverflow` both ways; with no shared variable every row is
    /// multiplied by the child's total count.
    #[test]
    fn a_counted_semijoin_multiplies_in_place() {
        let a = crel(&["x", "y"], &[&[1, 10], &[2, 20], &[3, 30], &[4, 10]]);
        let child = |counts: Vec<i64>| {
            crel(&["y", "z"], &[&[10, 0], &[30, 5], &[10, 1], &[40, 1]]).with_counts(counts)
        };
        let reference = |a: &CRel, b: &CRel, budget: &mut Budget| {
            let shared = (b.cols().iter()).filter(|c| ***c != *COUNT && a.col_index(c).is_some());
            let partners = project(b, &shared.collect::<Vec<_>>(), true, budget)?;
            natural_join(a, &partners, budget)
        };
        let counted = a.clone().with_counts(vec![2, 3, 5, 7]);
        let b = child(vec![1, 6, 4, 9]);
        for (a, want) in [(&a, [5, 6, 5]), (&counted, [10, 30, 35])] {
            let mut budget = Budget::unlimited();
            let got = semijoin(a, &b, &mut budget).unwrap();
            assert_eq!(budget.join_stats().hash_builds(), 0);
            assert_eq!(budget.charged(), 3);
            let expect = reference(a, &b, &mut Budget::unlimited()).unwrap();
            assert_eq!(got.cols(), expect.cols());
            assert_eq!(got.to_vrel().sorted_rows(), expect.to_vrel().sorted_rows());
            // In `a`'s order: the rows x = 1, 3, 4.
            let xs: Vec<Value> = got.to_vrel().rows().iter().map(|r| r[0].clone()).collect();
            assert_eq!(xs, [1, 3, 4].map(Value::Int));
            assert_eq!(got.counts().unwrap(), want);
        }

        // `2 · (1 + 2⁶³)` and `2⁶³ + 2⁶³` do not fit.
        let half = (1u64 << 63) as i64;
        for (a, b) in [
            (&counted, child(vec![1, 6, half, 9])),
            (&a, child(vec![half, 6, half, 9])),
        ] {
            let sizes = |r: Result<CRel, EvalError>| r.map(|r| r.len());
            let got = sizes(semijoin(a, &b, &mut Budget::unlimited()));
            assert_eq!(got, Err(EvalError::CountOverflow));
            let want = sizes(reference(a, &b, &mut Budget::unlimited()));
            assert_eq!(want, Err(EvalError::CountOverflow));
        }

        let unshared = crel(&["w"], &[&[1], &[2]]).with_counts(vec![3, 4]);
        let got = semijoin(&counted, &unshared, &mut Budget::unlimited()).unwrap();
        assert_eq!(got.counts().unwrap(), [14, 21, 35, 49]);
        let empty = CRel::empty(vec!["y".into(), COUNT.into()]);
        assert!(semijoin(&counted, &empty, &mut Budget::unlimited())
            .unwrap()
            .is_empty());
    }

    /// The counted projection keeps its group table in the distinct
    /// projection's reservation and charges each group's 8-byte sum when
    /// the group opens, beside its 4-byte first row: 1,000 rows into 10
    /// groups fit a byte cap of `distinct_bytes(1000) + 12·10` and are
    /// refused one byte below it (the cap was `distinct_bytes(1000) +
    /// 4·1000 + 4·10` while 4 bytes a row were reserved toward the sums).
    #[test]
    fn a_counted_projection_reserves_its_table_and_charges_its_sums() {
        let n = 1_000;
        let columns = [(0..n).map(|i| i % 10).collect(), (0..n).collect()]
            .map(|c: Vec<i64>| Arc::new(Column::from_ints(c)));
        let a = CRel::new(vec!["x".into(), "y".into()], columns.to_vec(), n as usize);
        let a = a.with_counts(vec![2; n as usize]);
        let cap = distinct_bytes(n as usize) + 12 * 10;
        let run = |cap| {
            let mut budget = Budget::unlimited().with_mem_limit(cap);
            project(&a, &["x"], true, &mut budget).map(|r| r.counts().unwrap().to_vec())
        };
        assert_eq!(run(cap), Ok(vec![200; 10]));
        assert!(matches!(
            run(cap - 1),
            Err(EvalError::MemoryExceeded { .. })
        ));
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
        let p = project_onto_available(a, &["x".into(), "w".into()], &mut budget).unwrap();
        assert_eq!(p.to_vrel().cols(), ["x"]);
    }

    /// The forced Grace route answers like the in-memory join, with either
    /// side as the caller's first: the same rows (floats by their bits),
    /// the same variant per output column — an all-NULL `Str` column stays
    /// `Str` — and the same tuple charge. The key has NULLs and a `Float`
    /// column of NaNs (two payloads), `-0.0` and `0.0`; the probe side is
    /// long enough to be joined in more than one batch of chunks.
    #[test]
    fn forced_spill_join_equals_the_in_memory_join() {
        use crate::error::SpillMode;
        use crate::schema::ColumnType;
        let col = |ty, vals: Vec<Value>| {
            let mut c = Column::new(ty);
            vals.iter().for_each(|v| c.push_value(v));
            Arc::new(c)
        };
        let nan2 = f64::from_bits(f64::NAN.to_bits() ^ 1);
        let float = |i: usize| Value::Float([f64::NAN, -0.0, 0.0, 1.5, nan2][i % 5]);
        let key = |i: usize| match i % 101 {
            0 => Value::Null,
            _ => Value::Int((i % 997) as i64),
        };
        let names = |n: &[&str]| n.iter().map(|&s| Name::from(s)).collect::<Vec<_>>();
        let (a_n, b_n) = (400, 40_000);
        let a = CRel::new(
            names(&["k", "f", "s", "d"]),
            vec![
                col(ColumnType::Int, (0..a_n).map(key).collect()),
                col(ColumnType::Float, (0..a_n).map(float).collect()),
                col(ColumnType::Str, vec![Value::Null; a_n]),
                col(
                    ColumnType::Date,
                    (0..a_n)
                        .map(|i| match i % 7 {
                            0 => Value::Null,
                            _ => Value::Date(i as i32),
                        })
                        .collect(),
                ),
            ],
            a_n,
        );
        let b = CRel::new(
            names(&["f", "k", "z"]),
            vec![
                col(ColumnType::Float, (0..b_n).map(|i| float(i * 3)).collect()),
                col(ColumnType::Int, (0..b_n).map(|i| key(i * 7)).collect()),
                col(
                    ColumnType::Str,
                    (0..b_n).map(|i| Value::str(["x", "y"][i % 2])).collect(),
                ),
            ],
            b_n,
        );
        let rows = |r: &CRel| {
            let reader = dict::reader();
            let mut rows: Vec<String> = (0..r.len())
                .map(|i| {
                    let cells = r.columns().iter().map(|c| match c.value_with(i, &reader) {
                        Value::Float(x) => format!("F{:x}", x.to_bits()),
                        v => format!("{v:?}"),
                    });
                    cells.collect::<Vec<_>>().join("|")
                })
                .collect();
            rows.sort();
            rows
        };
        let variants = |r: &CRel| {
            (r.columns().iter())
                .map(|c| std::mem::discriminant(c.data()))
                .collect::<Vec<_>>()
        };
        for (l, r) in [(&a, &b), (&b, &a)] {
            let mut mem = Budget::unlimited();
            let mut spill = Budget::unlimited().with_spill_mode(SpillMode::Force);
            let want = natural_join(l, r, &mut mem).unwrap();
            let got = natural_join(l, r, &mut spill).unwrap();
            assert_eq!(spill.spill_stats().partitions(), 16);
            assert!(want.len() > 1000, "{} rows", want.len());
            assert_eq!(got.cols(), want.cols());
            assert_eq!(variants(&got), variants(&want));
            assert_eq!(rows(&got), rows(&want));
            assert_eq!(spill.charged(), mem.charged());
        }
    }

    /// A splitmix64 stream: the one-table suite's source of randomness.
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

        fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
            xs[self.below(xs.len() as u64) as usize]
        }
    }

    /// Key kinds: `int`, `date` and `str` are packed (the direct table
    /// when their range fits), the rest hashed: a sparse `Int` range,
    /// `Float` (`-0.0`/`0.0` and NaNs of two payloads share a group, so
    /// which row a group keeps shows in the bits), NULLs, `Mixed`.
    const KINDS: [&str; 7] = [
        "int",
        "date",
        "str",
        "int_sparse",
        "float",
        "nulls",
        "mixed",
    ];

    /// Key `k` of a column of `kind`, at row `i`.
    fn key_cell(kind: &str, k: u64, i: usize) -> Value {
        let nan2 = f64::from_bits(f64::NAN.to_bits() ^ 1);
        match kind {
            "int" => Value::Int(k as i64 - 3),
            "date" => Value::Date(9_000 + k as i32),
            "str" => Value::str(&format!("g{k}")),
            "int_sparse" => Value::Int(k as i64 * 1_000_003),
            "float" => match k {
                0 => Value::Float([0.0, -0.0][i % 2]),
                1 => Value::Float([f64::NAN, nan2][i % 2]),
                k => Value::Float(k as f64 * 0.5),
            },
            "nulls" if k == 0 => Value::Null,
            "nulls" => Value::Int(k as i64),
            _ if k.is_multiple_of(2) => Value::Int(k as i64),
            _ => Value::str(&format!("m{k}")),
        }
    }

    /// Row `i`'s cells over `idx`, floats by their bits.
    fn cells(r: &CRel, i: usize, idx: &[usize], reader: &DictReader) -> Vec<String> {
        (idx.iter()
            .map(|&c| match r.column(c).value_with(i, reader) {
                Value::Float(x) => format!("F{:x}", x.to_bits()),
                v => format!("{v:?}"),
            }))
        .collect()
    }

    /// What a projection of `a` onto `idx` must give, by a `Vec` scan: the
    /// first row of each key (in input order), each key's summed count,
    /// and the groups opened — or, where a sum passes `u64`, the groups
    /// opened up to that row.
    fn first_occurrences(
        a: &CRel,
        idx: &[usize],
        counts: Option<&[i64]>,
    ) -> (Vec<u32>, Result<Vec<u64>, usize>) {
        let rows = a.to_vrel();
        let key = |i: usize| idx.iter().map(|&c| rows.rows()[i][c].clone()).collect();
        let mut seen: Vec<(Vec<Value>, u64)> = Vec::new();
        let mut first = Vec::new();
        for i in 0..a.len() {
            let k: Vec<Value> = key(i);
            let g = match seen.iter().position(|(s, _)| *s == k) {
                Some(g) => g,
                None => {
                    seen.push((k, 0));
                    first.push(i as u32);
                    seen.len() - 1
                }
            };
            let add = counts.map_or(1, |c| c[i] as u64);
            match seen[g].1.checked_add(add) {
                Some(sum) => seen[g].1 = sum,
                None => return (first, Err(seen.len())),
            }
        }
        (first, Ok(seen.into_iter().map(|(_, sum)| sum).collect()))
    }

    /// One case: its relation (key columns first, then the row number
    /// `p`), the key columns and, for a counted case, the counts.
    fn one_table_case(g: &mut Gen) -> (CRel, Vec<usize>, Option<Vec<i64>>) {
        let n = g.pick(&[0usize, 1, 2, 9, 70, 600, 4_200, 9_000]);
        let width = g.pick(&[0usize, 1, 1, 1, 2]);
        // Few keys over any number of rows, or (up to 600 rows) about as
        // many keys as rows: a table that must hold many groups.
        let keys = match n {
            0..=600 if g.below(2) == 0 => n as u64 + 1,
            _ => 1 + g.below(12),
        };
        let kinds: Vec<&str> = (0..width).map(|_| g.pick(&KINDS)).collect();
        let cols = (0..width).map(|c| format!("k{c}")).chain(["p".into()]);
        let rows = (0..n)
            .map(|i| {
                let k = (kinds.iter()).map(|kind| key_cell(kind, g.below(keys), i));
                k.chain([Value::Int(i as i64)]).collect()
            })
            .collect();
        let a = CRel::from_vrel(&VRelation::from_rows(cols.collect(), rows));
        let counts = (g.below(2) == 0).then(|| {
            let huge = g.below(4) == 0;
            (0..n)
                .map(|_| match g.below(50) {
                    0 if huge => i64::MAX,
                    c => 1 + c as i64 % 4,
                })
                .collect()
        });
        (a, (0..width).collect(), counts)
    }

    /// The distinct and the counted projection find a row's group in the
    /// one table, `GroupIds`, whichever way it goes: no key, packed keys
    /// (the direct table), `Float`/NULL/`Mixed`/sparse keys (the hashed
    /// table), many groups (presized) and few, past one block of rows.
    /// Each must give what a first-occurrence `Vec` scan gives: the kept
    /// rows (floats by their bits) in order, the summed counts or the
    /// overflow, and `charged()` — one tuple per group opened.
    #[test]
    fn projections_over_the_one_table_match_a_first_occurrence_scan() {
        let cases = 120;
        // No key, direct, hashed with few groups, hashed with many,
        // counted, overflowed, past one block.
        let mut seen = [0usize; 7];
        for case in 0..cases {
            let mut g = Gen(case);
            let (a, idx, counts) = one_table_case(&mut g);
            let reader = dict::reader();
            let map_bytes = distinct_bytes(a.len());
            let (want_rows, _) = first_occurrences(&a, &idx, None);
            let (_, want_sums) = first_occurrences(&a, &idx, counts.as_deref());
            match GroupIds::new(&a, &idx, map_bytes, &reader) {
                GroupIds::One => seen[0] += 1,
                GroupIds::Direct { .. } => seen[1] += 1,
                GroupIds::Hashed { .. } if want_rows.len() <= 8 => seen[2] += 1,
                GroupIds::Hashed { .. } => seen[3] += 1,
            }
            seen[4] += counts.is_some() as usize;
            seen[5] += want_sums.is_err() as usize;
            seen[6] += (a.len() > BLOCK) as usize;
            drop(reader);

            let mut budget = Budget::unlimited();
            let kept = group_rows(&a, &idx, 0, &mut budget, |_, _| Ok(())).unwrap();
            assert_eq!(kept, want_rows, "case {case}: kept rows");

            let input = match &counts {
                Some(c) => a.clone().with_counts(c.clone()),
                None => a.clone(),
            };
            let mut budget = Budget::unlimited();
            let got = project_columns(&input, idx.clone(), true, &mut budget);
            match (got, &want_sums) {
                (Ok(got), Ok(sums)) => {
                    let reader = dict::reader();
                    let out_idx: Vec<usize> = (0..idx.len()).collect();
                    let rows: Vec<_> = (0..got.len())
                        .map(|i| cells(&got, i, &out_idx, &reader))
                        .collect();
                    let want: Vec<_> = (want_rows.iter())
                        .map(|&r| cells(&a, r as usize, &idx, &reader))
                        .collect();
                    assert_eq!(rows, want, "case {case}: rows");
                    match &counts {
                        Some(_) => assert_eq!(
                            got.counts()
                                .unwrap()
                                .iter()
                                .map(|&c| c as u64)
                                .collect::<Vec<_>>(),
                            *sums,
                            "case {case}: sums"
                        ),
                        None => assert_eq!(got.counts(), None, "case {case}"),
                    }
                    assert_eq!(budget.charged(), want_rows.len() as u64, "case {case}");
                }
                (Err(EvalError::CountOverflow), Err(groups)) if counts.is_some() => {
                    assert_eq!(budget.charged(), *groups as u64, "case {case}: overflow");
                }
                (got, _) => panic!("case {case}: {:?}", got.map(|r| r.len())),
            }
        }
        let what = [
            "no key",
            "the direct table",
            "the hashed table, few groups",
            "the hashed table, many groups",
            "counted inputs",
            "overflowed sums",
            "inputs past one block",
        ];
        for (n, what) in seen.iter().zip(what) {
            assert!(*n >= 3, "{n} of {cases} cases reach {what}");
        }
    }
}
