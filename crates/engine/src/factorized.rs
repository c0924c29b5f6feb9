//! Factorized query results (the paper's output-polynomial guarantee made
//! practical): after semijoin reduction, keep the per-vertex reduced
//! relations plus join-key linkage instead of materializing the full join
//! bottom-up. The *cover* supports
//!
//! * exact answer counting and weighted aggregation (COUNT / SUM / MIN /
//!   MAX / GROUP BY) without ever enumerating the answer — per-vertex
//!   partial counts are multiplied along join keys, and
//! * constant-delay enumeration of the answer tuples, lazily stitching
//!   vertex rows via `ChainTable` chain cursors.
//!
//! The representation is exact only when the
//! linked relations are *stitchable* (every variable a vertex shares with
//! its parent's scope is a column of the parent) and each vertex's answer
//! columns functionally determine its link columns; `build_cover` verifies
//! both and reports [`CoverError::Ineligible`] otherwise, the caller's cue
//! to fall back to full materialization (which can spill). Denied byte
//! reservations degrade the same way — the factorized path never spills
//! itself.
//!
//! See DESIGN.md §3.11 for the eligibility proof sketch.

use crate::aggregate::{self, Accumulator, WeightedFeedError};
use crate::chain::{ChainTable, CHAIN_END};
use crate::column::{combine_hash, finish_hash};
use crate::cops;
use crate::crel::CRel;
use crate::dict::{self, DictReader};
use crate::error::{Budget, EvalError};
use crate::hash::FxHashMap;
use crate::value::{row_heap_bytes, Row, Value};
use crate::vrel::VRelation;
use htqo_cq::{ConjunctiveQuery, OutputItem};
use std::collections::{HashMap, HashSet};

/// Why a factorized attempt did not produce a result.
#[derive(Debug)]
pub enum CoverError {
    /// The query/data combination cannot be represented factorized
    /// *exactly* (or was denied the memory to try); the caller should
    /// fall back to the materialized pipeline. Carries a human-readable
    /// reason for `QueryOutcome` telemetry.
    Ineligible(String),
    /// A genuine evaluation error; surface it unchanged — falling back
    /// would either repeat it or mask it.
    Eval(EvalError),
}

/// Routes an operator error: a denied reservation degrades to fallback
/// (the materialized pipeline can spill where the cover cannot), anything
/// else propagates.
fn degrade(e: EvalError) -> CoverError {
    match e {
        EvalError::MemoryExceeded { .. } => {
            CoverError::Ineligible("factorized state denied a byte reservation".into())
        }
        other => CoverError::Eval(other),
    }
}

/// `fail_point!` needs an `EvalError` result context; this wraps one site
/// for use inside `CoverError`-returning code.
fn fp(site: &str) -> Result<(), EvalError> {
    crate::fail_point!(site);
    Ok(())
}

/// Key hash of row `i` of `rel` over columns `idx`: the single-row fold
/// of the vectorized [`cops::key_hashes`] pass (pinned equivalent by
/// `cops::tests::write_hashes_matches_hash_at_fold`), so a parent row
/// probes the chains built from a child's hashes.
fn key_hash_row(rel: &CRel, i: usize, idx: &[usize], rd: &DictReader) -> u64 {
    finish_hash(idx.iter().fold(0u64, |acc, &c| {
        combine_hash(acc, rel.column(c).hash_at(i, rd))
    }))
}

/// Input to [`build_cover`]: one relation per decomposition vertex, its
/// parent link, and its decomposition scope (χ(v) for a hypertree, the
/// edge variables for a join forest) as variable names. Relations arrive
/// *unreduced* — the build runs its own bottom-up semijoin pass, which the
/// chain-match guarantee of the enumerator depends on.
pub struct CoverInput {
    /// Per-vertex relations over the vertex's available variables.
    pub rels: Vec<CRel>,
    /// Parent index per vertex; `None` marks a root. Forests are allowed —
    /// the build stitches multiple roots under a synthetic neutral root
    /// (an empty join key, i.e. a cross product).
    pub parents: Vec<Option<usize>>,
    /// Decomposition scope per vertex, used for the stitchability check.
    pub scopes: Vec<Vec<String>>,
}

/// One vertex of a built [`Cover`]: its (reduced, projected) relation,
/// the positional join key against its parent, a chain table over the key
/// for parent→child probes, and the per-row answer count of its subtree.
struct CoverVertex {
    rel: CRel,
    /// Index into `Cover::verts` (BFS order, so always smaller than the
    /// vertex's own index). The root stores `0` (unused).
    parent: usize,
    /// Join-key columns in this relation / in the parent's relation.
    key_self: Vec<usize>,
    key_parent: Vec<usize>,
    /// Chains over `key_self` hashes; `None` for the root.
    table: Option<ChainTable>,
    /// `cnt[i]` = number of distinct answer combinations contributed by
    /// this vertex's subtree when this vertex sits on row `i`.
    cnt: Vec<u64>,
}

/// A factorized answer: reduced per-vertex relations linked by join keys,
/// with per-row subtree answer counts. Produced by [`build_cover`];
/// consumed by [`finalize_cover`] (aggregation without enumeration) or
/// [`Cover::into_rows`] (constant-delay enumeration).
pub struct Cover {
    /// Kept vertices in BFS order (index 0 is the root; parents precede
    /// children).
    verts: Vec<CoverVertex>,
    /// `(vertex, column)` supplying each answer variable, in
    /// `q.out_vars()` order.
    out: Vec<(usize, usize)>,
    /// Answer variable names, in `q.out_vars()` order.
    out_names: Vec<String>,
    /// Exact number of (distinct) answer tuples.
    total: u64,
    /// Bytes of cover state currently charged to the budget; released by
    /// whichever consumer finishes with the cover.
    state_bytes: u64,
}

impl Cover {
    /// Exact answer cardinality, computed without enumeration.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Bytes of cover state charged against the budget.
    pub fn state_bytes(&self) -> u64 {
        self.state_bytes
    }

    /// Answer column names, in `out(Q)` order (hidden rowid guards
    /// included).
    pub fn answer_cols(&self) -> &[String] {
        &self.out_names
    }

    /// Releases the cover's byte charges without consuming it further.
    /// Call when abandoning a cover that will be neither finalized nor
    /// enumerated.
    pub fn release(mut self, budget: &mut Budget) {
        budget.uncharge_bytes(self.state_bytes);
        self.state_bytes = 0;
    }

    /// Turns the cover into a constant-delay answer enumerator. The
    /// iterator takes over the cover's byte charges (released when it is
    /// exhausted or dropped) and charges one tuple per emitted row against
    /// a forked handle of `budget`.
    pub fn into_rows(self, budget: &mut Budget) -> CoverRows {
        CoverRows {
            budget: budget.fork(),
            cursors: Vec::new(),
            started: false,
            done: false,
            emitted: 0,
            state_released: false,
            cover: self,
        }
    }
}

/// Everything `build_cover_inner` hands back on success.
type Built = (Vec<CoverVertex>, Vec<(usize, usize)>, Vec<String>, u64);

/// Builds a [`Cover`] over the linked relations of `input`, verifying the
/// exactness conditions (stitchability, answer-determines-link) along the
/// way. On any error every byte charged by the attempt is released; tuple
/// charges stay (they measure work actually performed).
pub fn build_cover(
    input: CoverInput,
    q: &ConjunctiveQuery,
    budget: &mut Budget,
) -> Result<Cover, CoverError> {
    fp("factorized::build").map_err(CoverError::Eval)?;
    budget.check_time().map_err(CoverError::Eval)?;
    let mem0 = budget.mem_used();
    match build_cover_inner(input, q, budget) {
        Ok((verts, out, out_names, total)) => Ok(Cover {
            verts,
            out,
            out_names,
            total,
            state_bytes: budget.mem_used().saturating_sub(mem0),
        }),
        Err(e) => {
            budget.uncharge_bytes(budget.mem_used().saturating_sub(mem0));
            Err(e)
        }
    }
}

#[allow(clippy::needless_range_loop)]
fn build_cover_inner(
    input: CoverInput,
    q: &ConjunctiveQuery,
    budget: &mut Budget,
) -> Result<Built, CoverError> {
    let CoverInput {
        mut rels,
        mut parents,
        mut scopes,
    } = input;
    if rels.is_empty() {
        return Err(CoverError::Ineligible("no decomposition vertices".into()));
    }
    assert_eq!(rels.len(), parents.len(), "one parent link per vertex");
    assert_eq!(rels.len(), scopes.len(), "one scope per vertex");

    // A forest stitches under a synthetic neutral root: the empty join key
    // hashes constantly, so each tree's root relation forms one chain and
    // the trees combine as a cross product — exactly the forest semantics.
    let roots: Vec<usize> = (0..rels.len()).filter(|&v| parents[v].is_none()).collect();
    let root = if roots.len() == 1 {
        roots[0]
    } else {
        rels.push(CRel::neutral());
        parents.push(None);
        scopes.push(Vec::new());
        let r = rels.len() - 1;
        for &v in &roots {
            parents[v] = Some(r);
        }
        r
    };
    let n = rels.len();

    // Chain cursors are u32 row indices.
    if rels.iter().any(|r| r.len() >= u32::MAX as usize) {
        return Err(CoverError::Ineligible(
            "a vertex relation exceeds the u32 row-index space".into(),
        ));
    }

    // Stitchability: a variable of `v` inside the parent's *scope* must be
    // a column of the parent's *relation*, so parent-child key equality
    // chains into global consistency (the decomposition's connectedness
    // condition does the rest).
    for v in 0..n {
        let Some(p) = parents[v] else { continue };
        for c in rels[v].cols() {
            if scopes[p].iter().any(|s| s == c) && rels[p].col_index(c).is_none() {
                return Err(CoverError::Ineligible(format!(
                    "variable `{c}` is in the parent's scope but not its relation"
                )));
            }
        }
    }

    // Parent-before-child order (BFS from the root); also validates the
    // links form one tree.
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
    for v in 0..n {
        if let Some(p) = parents[v] {
            children[p].push(v);
        }
    }
    let mut order = Vec::with_capacity(n);
    order.push(root);
    let mut i = 0;
    while i < order.len() {
        order.extend(children[order[i]].iter().copied());
        i += 1;
    }
    if order.len() != n {
        return Err(CoverError::Ineligible(
            "vertex links do not form a rooted tree".into(),
        ));
    }

    // Bottom-up semijoin reduction, children before parents: every
    // surviving parent row then has ≥1 match in each (already reduced)
    // child — the enumerator's chain-match guarantee.
    let mut opt: Vec<Option<CRel>> = rels.into_iter().map(Some).collect();
    for &v in order.iter().rev() {
        let Some(p) = parents[v] else { continue };
        budget.check_time().map_err(CoverError::Eval)?;
        let parent = opt[p].take().expect("present");
        let child = opt[v].as_ref().expect("present");
        opt[p] = Some(cops::semijoin(&parent, child, budget).map_err(degrade)?);
    }
    let rels: Vec<CRel> = opt.into_iter().map(|r| r.expect("present")).collect();

    // Answer variables (hidden rowid guards included).
    let out_names: Vec<String> = q.out_vars();
    let out_set: HashSet<&str> = out_names.iter().map(|s| s.as_str()).collect();

    // Subtree answer variables, for pruning.
    let mut sub_out: Vec<HashSet<String>> = rels
        .iter()
        .map(|r| {
            r.cols()
                .iter()
                .filter(|c| out_set.contains(c.as_str()))
                .cloned()
                .collect()
        })
        .collect();
    for &v in order.iter().rev() {
        if let Some(p) = parents[v] {
            let vs: Vec<String> = sub_out[v].iter().cloned().collect();
            sub_out[p].extend(vs);
        }
    }

    // Prune subtrees whose entire answer contribution is already pinned by
    // the parent row: their filtering effect is spent in the semijoin
    // reduction, and under stitchability each parent row admits exactly
    // one distinct answer combination from such a subtree.
    let mut kept = vec![false; n];
    kept[root] = true;
    for &v in &order {
        if !kept[v] {
            continue;
        }
        for &c in &children[v] {
            kept[c] = !sub_out[c].iter().all(|s| rels[v].col_index(s).is_some());
        }
    }

    // Per kept vertex, keep only answer columns and link columns (keys
    // shared with the kept parent / kept children), then project distinct.
    // Distinctness makes subtree counts count *distinct* combinations.
    let mut keeps: Vec<Vec<String>> = vec![Vec::new(); n];
    for &v in &order {
        if !kept[v] {
            continue;
        }
        keeps[v] = rels[v]
            .cols()
            .iter()
            .filter(|c| {
                out_set.contains(c.as_str())
                    || parents[v].is_some_and(|p| rels[p].col_index(c).is_some())
                    || children[v]
                        .iter()
                        .any(|&ch| kept[ch] && rels[ch].col_index(c).is_some())
            })
            .cloned()
            .collect();
    }
    let mut proj: Vec<Option<CRel>> = rels.into_iter().map(Some).collect();
    for &v in &order {
        if !kept[v] {
            proj[v] = None;
            continue;
        }
        let r = proj[v].take().expect("present");
        proj[v] = Some(cops::project(&r, &keeps[v], true, budget).map_err(degrade)?);
    }

    // Assemble kept vertices in BFS order; parents keep smaller indices.
    let mut remap = vec![usize::MAX; n];
    let mut verts: Vec<CoverVertex> = Vec::new();
    for &v in &order {
        if !kept[v] {
            continue;
        }
        remap[v] = verts.len();
        verts.push(CoverVertex {
            rel: proj[v].take().expect("kept"),
            parent: parents[v].map(|p| remap[p]).unwrap_or(0),
            key_self: Vec::new(),
            key_parent: Vec::new(),
            table: None,
            cnt: Vec::new(),
        });
    }

    // Positional join keys child ↔ parent (shared column names).
    let mut keys: Vec<(Vec<usize>, Vec<usize>)> = vec![(Vec::new(), Vec::new())];
    for k in 1..verts.len() {
        let p = verts[k].parent;
        let mut ks = Vec::new();
        let mut kp = Vec::new();
        for (i, c) in verts[k].rel.cols().iter().enumerate() {
            if let Some(j) = verts[p].rel.col_index(c) {
                ks.push(i);
                kp.push(j);
            }
        }
        keys.push((ks, kp));
    }
    for (k, (ks, kp)) in keys.into_iter().enumerate() {
        verts[k].key_self = ks;
        verts[k].key_parent = kp;
    }

    let rd = dict::reader();

    // Exactness: within every kept vertex, the answer columns must
    // functionally determine the link columns — otherwise one answer
    // combination could stitch in several ways and counts would inflate.
    for vert in &verts {
        let rel = &vert.rel;
        let (mut out_idx, mut link_idx) = (Vec::new(), Vec::new());
        for (i, c) in rel.cols().iter().enumerate() {
            if out_set.contains(c.as_str()) {
                out_idx.push(i);
            } else {
                link_idx.push(i);
            }
        }
        if link_idx.is_empty() {
            continue;
        }
        let fd_bytes = 12 * rel.len() as u64;
        if !budget.try_reserve_bytes(fd_bytes) {
            return Err(degrade(aggregate::group_state_exceeded(budget, fd_bytes)));
        }
        let hashes = cops::key_hashes(rel, &out_idx, &rd);
        let mut reps: FxHashMap<u64, Vec<u32>> = FxHashMap::default();
        let mut violated = false;
        'rows: for (i, &h) in hashes.iter().enumerate() {
            let bucket = reps.entry(h).or_default();
            for &r in bucket.iter() {
                if cops::rows_key_eq(rel, i, rel, r as usize, &out_idx, &out_idx, &rd) {
                    if !cops::rows_key_eq(rel, i, rel, r as usize, &link_idx, &link_idx, &rd) {
                        violated = true;
                        break 'rows;
                    }
                    continue 'rows;
                }
            }
            bucket.push(i as u32);
        }
        budget.uncharge_bytes(fd_bytes);
        if violated {
            return Err(CoverError::Ineligible(
                "a vertex's answer columns do not determine its link columns".into(),
            ));
        }
    }

    // Answer variable → first kept vertex carrying it. Stitched key
    // equality makes every carrier agree, so "first" is arbitrary.
    let mut out_map = Vec::with_capacity(out_names.len());
    for name in &out_names {
        let Some(pair) = verts
            .iter()
            .enumerate()
            .find_map(|(k, vx)| vx.rel.col_index(name).map(|c| (k, c)))
        else {
            return Err(CoverError::Ineligible(format!(
                "answer variable `{name}` is not covered by any kept vertex"
            )));
        };
        out_map.push(pair);
    }

    // Chain tables over each non-root vertex's join key (parent → child
    // probes for both counting and enumeration).
    for k in 1..verts.len() {
        budget.check_time().map_err(CoverError::Eval)?;
        let rel = &verts[k].rel;
        let bytes = ChainTable::byte_estimate(rel.len());
        if !budget.try_reserve_bytes(bytes) {
            return Err(degrade(aggregate::group_state_exceeded(budget, bytes)));
        }
        let hashes = cops::key_hashes(rel, &verts[k].key_self, &rd);
        verts[k].table = Some(ChainTable::build(rel.len(), |i| hashes[i]));
    }

    // Subtree answer counts, children (larger indices) before parents:
    // cnt[v][i] = ∏_{kept child c} Σ_{j matching i} cnt[c][j].
    for k in (0..verts.len()).rev() {
        let bytes = 8 * verts[k].rel.len() as u64;
        if !budget.try_reserve_bytes(bytes) {
            return Err(degrade(aggregate::group_state_exceeded(budget, bytes)));
        }
        let mut cnt = vec![1u64; verts[k].rel.len()];
        for c in (k + 1)..verts.len() {
            if verts[c].parent != k {
                continue;
            }
            budget.check_time().map_err(CoverError::Eval)?;
            let phashes = cops::key_hashes(&verts[k].rel, &verts[c].key_parent, &rd);
            let table = verts[c].table.as_ref().expect("non-root");
            for i in 0..cnt.len() {
                let mut s: u64 = 0;
                let mut j = table.head(phashes[i]);
                while j != CHAIN_END {
                    if cops::rows_key_eq(
                        &verts[c].rel,
                        j as usize,
                        &verts[k].rel,
                        i,
                        &verts[c].key_self,
                        &verts[c].key_parent,
                        &rd,
                    ) {
                        s = s.checked_add(verts[c].cnt[j as usize]).ok_or_else(|| {
                            CoverError::Ineligible("answer count overflow".into())
                        })?;
                    }
                    j = table.next_row(j);
                }
                if s == 0 {
                    // Semijoin reduction guarantees a match for *live* rows;
                    // a dead row (unreachable from the root) can land here
                    // harmlessly, but bail defensively rather than emit a
                    // zero count.
                    return Err(CoverError::Ineligible(
                        "a reduced parent row lost its child match".into(),
                    ));
                }
                cnt[i] = cnt[i]
                    .checked_mul(s)
                    .ok_or_else(|| CoverError::Ineligible("answer count overflow".into()))?;
            }
        }
        verts[k].cnt = cnt;
    }

    let mut total: u64 = 0;
    for &c in &verts[0].cnt {
        total = total
            .checked_add(c)
            .ok_or_else(|| CoverError::Ineligible("answer count overflow".into()))?;
    }

    Ok((verts, out_map, out_names, total))
}

/// Computes the final aggregate output of `q` directly from a cover —
/// GROUP BY groups, aggregate functions, HAVING — without enumerating the
/// answer: each root row feeds the accumulators once, weighted by its
/// subtree answer count. Requires every grouping variable and aggregate
/// input to be a root column (the caller's static eligibility check);
/// order-sensitive accumulation (float SUM, AVG) and overflow degrade to
/// [`CoverError::Ineligible`] at runtime. Consumes the cover and releases
/// its byte charges.
///
/// Group rows come out in root-row first-seen order, which can differ from
/// the materialized pipeline's answer-row order — callers gate this path
/// to queries without ORDER BY/LIMIT, where output order is unspecified.
pub fn finalize_cover(
    cover: Cover,
    q: &ConjunctiveQuery,
    budget: &mut Budget,
) -> Result<VRelation, CoverError> {
    let state_bytes = cover.state_bytes;
    let mut accrued = 0u64;
    let result = finalize_cover_inner(&cover, q, budget, &mut accrued);
    budget.uncharge_bytes(accrued);
    budget.uncharge_bytes(state_bytes);
    let out = result?;
    budget
        .charge_bytes(out.len() as u64 * row_heap_bytes(out.cols().len()))
        .map_err(degrade)?;
    aggregate::finalize_tail(out, q, budget).map_err(CoverError::Eval)
}

fn finalize_cover_inner(
    cover: &Cover,
    q: &ConjunctiveQuery,
    budget: &mut Budget,
    accrued: &mut u64,
) -> Result<VRelation, CoverError> {
    fp("aggregate::finalize").map_err(CoverError::Eval)?;
    let (visible, labels) = aggregate::visible_output(q);
    let root = &cover.verts[0];
    let cols = root.rel.cols().to_vec();
    let group_idx = match aggregate::group_layout(&cols, q, &visible) {
        Ok(g) => g,
        Err(EvalError::UnknownVariable(v)) => {
            return Err(CoverError::Ineligible(format!(
                "grouping variable `{v}` is not a root column"
            )))
        }
        Err(e) => return Err(CoverError::Eval(e)),
    };

    let group_bytes = aggregate::group_state_bytes(group_idx.len(), visible.len());
    let mut groups: HashMap<Row, Vec<Accumulator>> = HashMap::new();
    let mut order: Vec<Row> = Vec::new();
    let rd = dict::reader();
    for i in 0..root.rel.len() {
        if i.is_multiple_of(8192) {
            budget.check_time().map_err(CoverError::Eval)?;
        }
        let weight = root.cnt[i];
        let row: Row = (0..cols.len())
            .map(|c| root.rel.column(c).value_with(i, &rd))
            .collect();
        let key: Row = group_idx.iter().map(|&gi| row[gi].clone()).collect();
        let accs = match groups.get_mut(&key) {
            Some(a) => a,
            None => {
                if !budget.try_reserve_bytes(group_bytes) {
                    return Err(degrade(aggregate::group_state_exceeded(
                        budget,
                        group_bytes,
                    )));
                }
                *accrued += group_bytes;
                budget.charge(1).map_err(CoverError::Eval)?;
                order.push(key.clone());
                groups
                    .entry(key.clone())
                    .or_insert_with(|| visible.iter().map(|o| Accumulator::for_item(o)).collect())
            }
        };
        for (acc, item) in accs.iter_mut().zip(&visible) {
            acc.feed_weighted(item, &cols, &row, weight)
                .map_err(|e| match e {
                    WeightedFeedError::OrderSensitive => CoverError::Ineligible(
                        "order-sensitive float accumulation requires enumeration".into(),
                    ),
                    WeightedFeedError::Overflow => {
                        CoverError::Ineligible("aggregate count overflow".into())
                    }
                    WeightedFeedError::Eval(EvalError::UnknownVariable(v)) => {
                        CoverError::Ineligible(format!(
                            "aggregate input `{v}` is not a root column"
                        ))
                    }
                    WeightedFeedError::Eval(e) => CoverError::Eval(e),
                })?;
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
        for (acc, item) in accs.iter().zip(&visible) {
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

/// Constant-delay answer enumerator over a [`Cover`]: an odometer of chain
/// cursors, one per non-root vertex, stitching vertex rows into answer
/// tuples on demand. Each `next()` walks at most one chain segment per
/// vertex (hash-collision skips aside), so the delay between consecutive
/// answers is independent of the answer count.
///
/// Yields `Result` rows so budget exhaustion and timeouts surface
/// mid-stream; after an error the iterator is fused. Dropping the iterator
/// (fully consumed or not) releases the cover's byte charges.
pub struct CoverRows {
    cover: Cover,
    budget: Budget,
    /// Current row per vertex, indexed like `Cover::verts`.
    cursors: Vec<u32>,
    started: bool,
    done: bool,
    emitted: u64,
    state_released: bool,
}

impl CoverRows {
    /// Answer column names, in `out(Q)` order.
    pub fn cols(&self) -> &[String] {
        &self.cover.out_names
    }

    /// Exact number of rows this enumerator yields in total.
    pub fn total(&self) -> u64 {
        self.cover.total
    }

    fn finish(&mut self) {
        self.done = true;
        if !self.state_released {
            self.state_released = true;
            self.budget.uncharge_bytes(self.cover.state_bytes);
        }
    }

    /// Positions vertex `k`'s cursor on the first row matching its
    /// parent's current row. Semijoin reduction + the root being live
    /// guarantee a match exists; a missing one is an internal error.
    fn prime(&mut self, k: usize, rd: &DictReader) -> Result<(), EvalError> {
        let vx = &self.cover.verts[k];
        let parent = &self.cover.verts[vx.parent];
        let prow = self.cursors[vx.parent] as usize;
        let h = key_hash_row(&parent.rel, prow, &vx.key_parent, rd);
        let table = vx.table.as_ref().expect("non-root has a table");
        let mut j = table.head(h);
        while j != CHAIN_END {
            if cops::rows_key_eq(
                &vx.rel,
                j as usize,
                &parent.rel,
                prow,
                &vx.key_self,
                &vx.key_parent,
                rd,
            ) {
                break;
            }
            j = table.next_row(j);
        }
        if j == CHAIN_END {
            return Err(EvalError::Internal(
                "factorized enumeration lost a guaranteed child match".into(),
            ));
        }
        self.cursors[k] = j;
        Ok(())
    }

    /// Advances vertex `k`'s cursor to the next row matching its parent's
    /// current row, or reports exhaustion of this chain.
    fn advance(&mut self, k: usize, rd: &DictReader) -> bool {
        let vx = &self.cover.verts[k];
        let parent = &self.cover.verts[vx.parent];
        let prow = self.cursors[vx.parent] as usize;
        let table = vx.table.as_ref().expect("non-root has a table");
        let mut j = table.next_row(self.cursors[k]);
        while j != CHAIN_END {
            if cops::rows_key_eq(
                &vx.rel,
                j as usize,
                &parent.rel,
                prow,
                &vx.key_self,
                &vx.key_parent,
                rd,
            ) {
                self.cursors[k] = j;
                return true;
            }
            j = table.next_row(j);
        }
        false
    }

    fn step(&mut self) -> Result<Option<Row>, EvalError> {
        fp("factorized::enumerate")?;
        let rd = dict::reader();
        let nv = self.cover.verts.len();
        if !self.started {
            self.started = true;
            if self.cover.total == 0 {
                return Ok(None);
            }
            self.cursors = vec![0; nv];
            for k in 1..nv {
                self.prime(k, &rd)?;
            }
        } else {
            // Advance the deepest advanceable digit; re-prime everything
            // after it. Digits advance child-most first so every parent
            // combination pairs with every child combination exactly once.
            let mut k = nv - 1;
            loop {
                if k == 0 {
                    let next = self.cursors[0] as usize + 1;
                    if next >= self.cover.verts[0].rel.len() {
                        return Ok(None);
                    }
                    self.cursors[0] = next as u32;
                    break;
                }
                if self.advance(k, &rd) {
                    break;
                }
                k -= 1;
            }
            for j in (k + 1)..nv {
                self.prime(j, &rd)?;
            }
        }

        self.emitted += 1;
        self.budget.charge(1)?;
        if self.emitted.is_multiple_of(1024) {
            self.budget.check_time()?;
            self.budget.check_exceeded()?;
        }
        let row: Row = self
            .cover
            .out
            .iter()
            .map(|&(k, c)| {
                self.cover.verts[k]
                    .rel
                    .column(c)
                    .value_with(self.cursors[k] as usize, &rd)
            })
            .collect();
        Ok(Some(row))
    }
}

impl Iterator for CoverRows {
    type Item = Result<Row, EvalError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        match self.step() {
            Ok(Some(row)) => Some(Ok(row)),
            Ok(None) => {
                self.finish();
                None
            }
            Err(e) => {
                self.finish();
                Some(Err(e))
            }
        }
    }
}

impl Drop for CoverRows {
    fn drop(&mut self) {
        self.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htqo_cq::CqBuilder;

    fn rel(cols: &[&str], rows: &[&[i64]]) -> CRel {
        CRel::from_vrel(&vrel(cols, rows))
    }

    fn vrel(cols: &[&str], rows: &[&[i64]]) -> VRelation {
        VRelation::from_rows(
            cols.iter().map(|c| c.to_string()).collect(),
            rows.iter()
                .map(|r| r.iter().map(|&v| Value::Int(v)).collect())
                .collect(),
        )
    }

    /// R(a,b) ⋈ S(b,c): 2×2 fan-out per b value.
    fn two_vertex_input() -> (CoverInput, ConjunctiveQuery) {
        let r = rel(&["a", "b"], &[&[1, 10], &[2, 10], &[3, 20]]);
        let s = rel(&["b", "c"], &[&[10, 7], &[10, 8], &[20, 9], &[30, 5]]);
        let q = CqBuilder::new()
            .atom_vars("R", &["a", "b"])
            .atom_vars("S", &["b", "c"])
            .out_var("a")
            .out_var("b")
            .out_var("c")
            .build();
        (
            CoverInput {
                rels: vec![r, s],
                parents: vec![None, Some(0)],
                scopes: vec![vec!["a".into(), "b".into()], vec!["b".into(), "c".into()]],
            },
            q,
        )
    }

    #[test]
    fn counts_and_enumerates_two_vertex_join() {
        let (input, q) = two_vertex_input();
        let mut budget = Budget::unlimited();
        let cover = build_cover(input, &q, &mut budget).expect("eligible");
        // a=1,2 × c=7,8 (b=10) plus a=3 × c=9 (b=20) = 5 answers.
        assert_eq!(cover.total(), 5);
        assert!(cover.state_bytes() > 0);
        let mut rows: Vec<Row> = cover
            .into_rows(&mut budget)
            .collect::<Result<_, _>>()
            .expect("no budget in play");
        rows.sort();
        let expect = vrel(
            &["a", "b", "c"],
            &[
                &[1, 10, 7],
                &[1, 10, 8],
                &[2, 10, 7],
                &[2, 10, 8],
                &[3, 20, 9],
            ],
        );
        assert_eq!(rows, expect.rows().to_vec());
        // The enumerator released every byte it held.
        assert_eq!(budget.mem_used(), 0);
    }

    #[test]
    fn weighted_count_multiplies_subtree_counts() {
        // Hidden rowid guards (the SQL front's bag-semantics device) make
        // every base row a distinct answer, so COUNT(*) GROUP BY b must
        // multiply R's and S's per-b multiplicities: b=10 → 2·2, b=20 → 1.
        let r = rel(&["b", "__rid_r"], &[&[10, 1], &[10, 2], &[20, 3]]);
        let s = rel(&["b", "__rid_s"], &[&[10, 7], &[10, 8], &[20, 9]]);
        let q = CqBuilder::new()
            .atom_vars("R", &["b", "__rid_r"])
            .atom_vars("S", &["b", "__rid_s"])
            .out_var("b")
            .out_agg(htqo_cq::AggFunc::Count, None, "n")
            .out_var("__rid_r")
            .out_var("__rid_s")
            .group("b")
            .build();
        let input = CoverInput {
            rels: vec![r, s],
            parents: vec![None, Some(0)],
            scopes: vec![
                vec!["b".into(), "__rid_r".into()],
                vec!["b".into(), "__rid_s".into()],
            ],
        };
        let mut budget = Budget::unlimited();
        let cover = build_cover(input, &q, &mut budget).expect("eligible");
        assert_eq!(cover.total(), 5);
        let out = finalize_cover(cover, &q, &mut budget).expect("countable");
        let mut rows = out.rows().to_vec();
        rows.sort();
        let expect = vrel(&["b", "n"], &[&[10, 4], &[20, 1]]);
        assert_eq!(rows, expect.rows().to_vec());
    }

    #[test]
    fn forest_stitches_as_cross_product() {
        let r = rel(&["a"], &[&[1], &[2]]);
        let s = rel(&["b"], &[&[7], &[8], &[9]]);
        let q = CqBuilder::new()
            .atom_vars("R", &["a"])
            .atom_vars("S", &["b"])
            .out_var("a")
            .out_var("b")
            .build();
        let input = CoverInput {
            rels: vec![r, s],
            parents: vec![None, None],
            scopes: vec![vec!["a".into()], vec!["b".into()]],
        };
        let mut budget = Budget::unlimited();
        let cover = build_cover(input, &q, &mut budget).expect("eligible");
        assert_eq!(cover.total(), 6);
        let rows: Result<Vec<Row>, _> = cover.into_rows(&mut budget).collect();
        assert_eq!(rows.expect("ok").len(), 6);
    }

    #[test]
    fn empty_component_empties_the_forest() {
        let r = rel(&["a"], &[&[1]]);
        let s = rel(&["b"], &[]);
        let q = CqBuilder::new()
            .atom_vars("R", &["a"])
            .atom_vars("S", &["b"])
            .out_var("a")
            .out_var("b")
            .build();
        let input = CoverInput {
            rels: vec![r, s],
            parents: vec![None, None],
            scopes: vec![vec!["a".into()], vec!["b".into()]],
        };
        let mut budget = Budget::unlimited();
        let cover = build_cover(input, &q, &mut budget).expect("eligible");
        assert_eq!(cover.total(), 0);
        assert_eq!(cover.into_rows(&mut budget).count(), 0);
    }

    #[test]
    fn fd_violation_is_ineligible() {
        // T(a, x) with a ∉ out sharing `a` with the root's scope but the
        // answer column x NOT determining a: x=1 stitches via a=10 and
        // a=20 — the cover would double-count.
        let r = rel(&["a"], &[&[10], &[20]]);
        let t = rel(&["a", "x"], &[&[10, 1], &[20, 1]]);
        let q = CqBuilder::new()
            .atom_vars("R", &["a"])
            .atom_vars("T", &["a", "x"])
            .out_var("x")
            .build();
        let input = CoverInput {
            rels: vec![r, t],
            parents: vec![None, Some(0)],
            scopes: vec![vec!["a".into()], vec!["a".into(), "x".into()]],
        };
        let mut budget = Budget::unlimited();
        match build_cover(input, &q, &mut budget) {
            Err(CoverError::Ineligible(reason)) => {
                assert!(reason.contains("determine"), "unexpected reason: {reason}")
            }
            other => panic!(
                "expected FD ineligibility, got {:?}",
                other.map(|c| c.total())
            ),
        }
        // The failed attempt released everything it charged.
        assert_eq!(budget.mem_used(), 0);
    }

    #[test]
    fn boolean_query_emits_one_empty_row() {
        let r = rel(&["a"], &[&[1], &[2]]);
        let q = CqBuilder::new().atom_vars("R", &["a"]).build();
        let input = CoverInput {
            rels: vec![r],
            parents: vec![None],
            scopes: vec![vec!["a".into()]],
        };
        let mut budget = Budget::unlimited();
        let cover = build_cover(input, &q, &mut budget).expect("eligible");
        assert_eq!(cover.total(), 1);
        let rows: Result<Vec<Row>, _> = cover.into_rows(&mut budget).collect();
        assert_eq!(rows.expect("ok"), vec![Vec::new().into_boxed_slice()]);
    }
}
