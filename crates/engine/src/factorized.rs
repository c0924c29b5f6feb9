//! Factorized aggregation (the paper's output-polynomial guarantee made
//! practical): after semijoin reduction, keep the per-vertex reduced
//! relations plus join-key linkage instead of materializing the full join
//! bottom-up. This *cover* counts answers without enumerating them —
//! per-vertex partial counts are multiplied along join keys — and the
//! root's counts weight its rows in the one grouping kernel
//! ([`crate::aggregate`]), so every aggregate, HAVING, ORDER BY and LIMIT
//! comes out as the materialized pipeline computes it ([`aggregate_cover`]).
//!
//! The counts are exact only when the linked relations are *stitchable*
//! (every variable a vertex shares with its parent's scope is a column of
//! the parent) and each vertex's answer columns functionally determine its
//! link columns; [`aggregate_cover`] verifies both and reports
//! [`CoverError::Ineligible`] otherwise, the caller's cue to fall back to
//! full materialization (which can spill). Denied byte reservations,
//! answer counts past `u64` and weights a float sum cannot apply exactly
//! degrade the same way — the factorized path never spills itself.
//!
//! See DESIGN.md §3.11 for the eligibility proof sketch.

use crate::aggregate;
use crate::chain::{ChainTable, CHAIN_END};
use crate::cops;
use crate::crel::{CRel, Name};
use crate::dict;
use crate::error::{Budget, EvalError};
use crate::hash::FxHashMap;
use crate::vrel::VRelation;
use htqo_cq::ConjunctiveQuery;
use std::collections::HashSet;

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

/// Input to [`aggregate_cover`]: one relation per decomposition vertex,
/// its parent link, and its decomposition scope (χ(v)) as variable names.
/// Relations arrive *unreduced* — the cover runs its own bottom-up
/// semijoin pass, which the counts depend on.
pub struct CoverInput {
    /// Per-vertex relations over the vertex's available variables.
    pub rels: Vec<CRel>,
    /// Parent index per vertex; `None` marks the root. The links must form
    /// one rooted tree.
    pub parents: Vec<Option<usize>>,
    /// Decomposition scope per vertex, used for the stitchability check.
    pub scopes: Vec<Vec<Name>>,
}

/// One kept vertex of a cover: its (reduced, projected) relation, the
/// positional join key against its parent, a chain table over the key
/// for parent→child probes, and the per-row answer count of its subtree.
struct CoverVertex {
    rel: CRel,
    /// Index of the parent among the kept vertices (BFS order, so always
    /// smaller than the vertex's own index). The root stores `0` (unused).
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

/// Computes the final aggregate output of `q` — GROUP BY groups,
/// aggregate functions, HAVING, ORDER BY, LIMIT — over the linked
/// relations of `input` without enumerating the answer: the vertices are
/// semijoin-reduced bottom-up and counted along their join keys, and the
/// grouping kernel reads the root relation once, each row weighted by its
/// subtree answer count (`aggregate::finalize_weighted`). Requires every
/// grouping variable and aggregate input to be a root column (the
/// caller's static eligibility check).
///
/// Refusals, in order: a relation past the `u32` row-index space, links
/// that are not stitchable or do not form one rooted tree, answer columns
/// that do not determine a vertex's link columns, an answer variable no
/// kept vertex carries, answer counts past `u64`, and a weight the kernel
/// cannot apply exactly; a denied reservation refuses wherever it happens.
/// Each is [`CoverError::Ineligible`]. The bytes the cover's own state
/// holds are released before it returns, whatever the outcome; tuple
/// charges stay (they measure work actually performed).
pub fn aggregate_cover(
    input: CoverInput,
    q: &ConjunctiveQuery,
    budget: &mut Budget,
) -> Result<VRelation, CoverError> {
    fp("factorized::build").map_err(CoverError::Eval)?;
    budget.check_time().map_err(CoverError::Eval)?;
    let mem0 = budget.mem_used();
    let (root, weights) = match count_root(input, q, budget) {
        Ok(root) => root,
        Err(e) => {
            budget.uncharge_bytes(budget.mem_used().saturating_sub(mem0));
            return Err(e);
        }
    };
    let state_bytes = budget.mem_used().saturating_sub(mem0);
    let out = aggregate::finalize_weighted(&root, &weights, q, budget);
    budget.uncharge_bytes(state_bytes);
    let out = match out {
        Ok(Some(out)) => out,
        Ok(None) => {
            return Err(CoverError::Ineligible(
                "a float outside the exact range repeats under a weight".into(),
            ))
        }
        Err(e) => return Err(degrade(e)),
    };
    // Same final check as the materialized pipeline: a shared budget's
    // charges are batched, so surface exhaustion before declaring success.
    budget.check_exceeded().map_err(CoverError::Eval)?;
    Ok(out)
}

/// The cover behind [`aggregate_cover`]: reduces, prunes and counts the
/// linked relations of `input`, and hands back the root relation with its
/// per-row subtree answer counts.
#[allow(clippy::needless_range_loop)]
fn count_root(
    input: CoverInput,
    q: &ConjunctiveQuery,
    budget: &mut Budget,
) -> Result<(CRel, Vec<u64>), CoverError> {
    let CoverInput {
        rels,
        parents,
        scopes,
    } = input;
    let n = rels.len();
    assert_eq!(n, parents.len(), "one parent link per vertex");
    assert_eq!(n, scopes.len(), "one scope per vertex");

    // Chain tables index rows as u32.
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
    let not_a_tree = || CoverError::Ineligible("vertex links do not form a rooted tree".into());
    let roots: Vec<usize> = (0..n).filter(|&v| parents[v].is_none()).collect();
    let &[root] = roots.as_slice() else {
        return Err(not_a_tree());
    };
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
        return Err(not_a_tree());
    }

    // Bottom-up semijoin reduction, children before parents: every
    // surviving parent row then has ≥1 match in each (already reduced)
    // child, so no live count is zero.
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
    let mut sub_out: Vec<HashSet<Name>> = rels
        .iter()
        .map(|r| {
            r.cols()
                .iter()
                .filter(|c| out_set.contains(&***c))
                .cloned()
                .collect()
        })
        .collect();
    for &v in order.iter().rev() {
        if let Some(p) = parents[v] {
            let vs: Vec<Name> = sub_out[v].iter().cloned().collect();
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
    let mut keeps: Vec<Vec<Name>> = vec![Vec::new(); n];
    for &v in &order {
        if !kept[v] {
            continue;
        }
        keeps[v] = rels[v]
            .cols()
            .iter()
            .filter(|c| {
                out_set.contains(&***c)
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
            if out_set.contains(&**c) {
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

    // Every answer variable must sit on some kept vertex, or the counts
    // would not distinguish its values.
    for name in &out_names {
        if !verts.iter().any(|vx| vx.rel.col_index(name).is_some()) {
            return Err(CoverError::Ineligible(format!(
                "answer variable `{name}` is not covered by any kept vertex"
            )));
        }
    }

    // Chain tables over each non-root vertex's join key (parent → child
    // probes of the count pass).
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

    // The weights must sum to at most `u64::MAX` (the grouping kernel's
    // precondition): the answer count itself must fit.
    let root = verts.swap_remove(0);
    (root.cnt.iter())
        .try_fold(0u64, |total, &c| total.checked_add(c))
        .ok_or_else(|| CoverError::Ineligible("answer count overflow".into()))?;
    Ok((root.rel, root.cnt))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{Row, Value};
    use htqo_cq::{AggFunc, CqBuilder, OutputItem};

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

    /// `COUNT(*)` over the answer tuples of `q`: its head variables become
    /// hidden output columns (the SQL isolator's device for rowid guards),
    /// so they stay in `out(Q)` without being grouped.
    fn count_star(mut q: ConjunctiveQuery) -> ConjunctiveQuery {
        for item in &mut q.output {
            if let OutputItem::Var { var, label } = item {
                *label = format!("{}{var}", htqo_cq::isolator::ROWID_VAR_PREFIX);
            }
        }
        q.output.push(OutputItem::Aggregate {
            func: AggFunc::Count,
            expr: None,
            label: "n".into(),
        });
        q
    }

    fn rows(out: &VRelation) -> Vec<Row> {
        let mut rows = out.rows().to_vec();
        rows.sort();
        rows
    }

    #[test]
    fn counts_two_vertex_join() {
        // R(a,b) ⋈ S(b,c): 2×2 fan-out per b value.
        let r = rel(&["a", "b"], &[&[1, 10], &[2, 10], &[3, 20]]);
        let s = rel(&["b", "c"], &[&[10, 7], &[10, 8], &[20, 9], &[30, 5]]);
        let q = CqBuilder::new()
            .atom_vars("R", &["a", "b"])
            .atom_vars("S", &["b", "c"])
            .out_var("a")
            .out_var("b")
            .out_var("c")
            .build();
        let input = CoverInput {
            rels: vec![r, s],
            parents: vec![None, Some(0)],
            scopes: vec![vec!["a".into(), "b".into()], vec!["b".into(), "c".into()]],
        };
        let mut budget = Budget::unlimited();
        let out = aggregate_cover(input, &count_star(q), &mut budget).expect("eligible");
        // a=1,2 × c=7,8 (b=10) plus a=3 × c=9 (b=20) = 5 answers.
        assert_eq!(rows(&out), vrel(&["n"], &[&[5]]).rows().to_vec());
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
            .out_agg(AggFunc::Count, None, "n")
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
        let out = aggregate_cover(input, &q, &mut budget).expect("countable");
        let expect = vrel(&["b", "n"], &[&[10, 4], &[20, 1]]);
        assert_eq!(rows(&out), expect.rows().to_vec());
    }

    /// A float sum over a root row of weight 2: exact money is doubled in
    /// one step; `1e300` or NaN, which no single step repeats exactly,
    /// make the cover ineligible, and it releases every byte it held.
    #[test]
    fn weighted_float_sum_refuses_values_outside_the_exact_range() {
        for (x, exact) in [(0.1, true), (1e300, false), (f64::NAN, false)] {
            let r = CRel::from_vrel(&VRelation::from_rows(
                vec!["b".into(), "x".into()],
                vec![vec![Value::Int(10), Value::Float(x)].into_boxed_slice()],
            ));
            let s = rel(&["b", "__rid_s"], &[&[10, 7], &[10, 8]]);
            let q = CqBuilder::new()
                .atom_vars("R", &["b", "x"])
                .atom_vars("S", &["b", "__rid_s"])
                .out_agg(
                    AggFunc::Sum,
                    Some(htqo_cq::ScalarExpr::Var("x".into())),
                    "s",
                )
                .out_var("__rid_s")
                .build();
            let input = CoverInput {
                rels: vec![r, s],
                parents: vec![None, Some(0)],
                scopes: vec![
                    vec!["b".into(), "x".into()],
                    vec!["b".into(), "__rid_s".into()],
                ],
            };
            let mut budget = Budget::unlimited();
            match aggregate_cover(input, &q, &mut budget) {
                Ok(out) => {
                    assert!(exact, "{x}");
                    assert_eq!(out.value(0, "s"), Some(&Value::Float(0.2)));
                }
                Err(CoverError::Ineligible(_)) => {
                    assert!(!exact, "{x}");
                    assert_eq!(budget.mem_used(), 0);
                }
                Err(CoverError::Eval(e)) => panic!("{e}"),
            }
        }
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
        match aggregate_cover(input, &count_star(q), &mut budget) {
            Err(CoverError::Ineligible(reason)) => {
                assert!(reason.contains("determine"), "unexpected reason: {reason}")
            }
            other => panic!("expected FD ineligibility, got {other:?}"),
        }
        // The failed attempt released everything it charged.
        assert_eq!(budget.mem_used(), 0);
    }

    #[test]
    fn boolean_query_counts_one_answer() {
        let r = rel(&["a"], &[&[1], &[2]]);
        let q = CqBuilder::new().atom_vars("R", &["a"]).build();
        let input = CoverInput {
            rels: vec![r],
            parents: vec![None],
            scopes: vec![vec!["a".into()]],
        };
        let mut budget = Budget::unlimited();
        let out = aggregate_cover(input, &count_star(q), &mut budget).expect("eligible");
        assert_eq!(rows(&out), vrel(&["n"], &[&[1]]).rows().to_vec());
    }
}
