//! The **q-hypertree evaluator** (Section 4 of the paper): evaluates a
//! conjunctive query along a good q-hypertree decomposition with a *single*
//! bottom-up pass.
//!
//! - `P′` — for each vertex `p`, join the relations of the atoms enforced
//!   or bounded at `p` (`assigned(p) ∪ λ(p)`) and project onto `χ(p)`
//!   (restricted to the variables those atoms actually carry — after
//!   `Optimize` some χ variables are only supplied by children, feature
//!   (b) of Definition 2);
//! - `P″` — bottom-up, join each vertex's relation with its children's
//!   results and project onto `χ(p)`, visiting *support children first*
//!   (the ordering caveat at the end of Section 4.1);
//! - `P‴` — project the root onto `out(Q)`.
//!
//! Because the root covers all output variables (Condition 2), no top-down
//! or second bottom-up pass is needed.
//!
//! Intermediate relations are columnar [`CRel`]s (flat typed columns,
//! dictionary-encoded strings, gather-based output) from the scans to the
//! root; the answer is converted to the client-facing [`VRelation`] once,
//! at the boundary.

use htqo_core::hypertree::NodeId;
use htqo_core::QhdPlan;
use htqo_cq::{AtomId, ConjunctiveQuery};
use htqo_engine::cops;
use htqo_engine::crel::CRel;
use htqo_engine::error::{Budget, EvalError};
use htqo_engine::iseek;
use htqo_engine::scan::scan_query_atom_c;
use htqo_engine::schema::Database;
use htqo_engine::vrel::VRelation;

pub use htqo_engine::exec::ExecOptions;

/// Evaluates `q` on `db` along the decomposition in `plan`, returning the
/// answer relation over `out(Q)` (set semantics). Uses the process-wide
/// [`ExecOptions`] defaults; see [`evaluate_qhd_with`] to pass them.
pub fn evaluate_qhd(
    db: &Database,
    q: &ConjunctiveQuery,
    plan: &QhdPlan,
    budget: &mut Budget,
) -> Result<VRelation, EvalError> {
    evaluate_qhd_with(db, q, plan, budget, &ExecOptions::default())
}

/// [`evaluate_qhd`] with explicit execution options.
pub fn evaluate_qhd_with(
    db: &Database,
    q: &ConjunctiveQuery,
    plan: &QhdPlan,
    budget: &mut Budget,
    opts: &ExecOptions,
) -> Result<VRelation, EvalError> {
    budget.apply_mem_limit(opts.mem_limit);
    Ok(evaluate_qhd_c(db, q, plan, budget, opts)?.to_vrel())
}

/// The `P′` phase as a reusable front: χ(p) per vertex (as names) and the
/// per-vertex joined relations, both indexed by [`NodeId::index`]. Shared
/// by the materialized pipeline below and the factorized cover build
/// ([`crate::factorized`]), so both see byte-identical vertex relations.
pub(crate) fn vertex_relations(
    db: &Database,
    q: &ConjunctiveQuery,
    plan: &QhdPlan,
    budget: &mut Budget,
    opts: &ExecOptions,
) -> Result<(Vec<Vec<String>>, Vec<CRel>), EvalError> {
    let tree = &plan.tree;
    let h = &plan.cq_hypergraph.hypergraph;

    // χ(p) as variable names, per vertex.
    let mut chi_names: Vec<Vec<String>> = vec![Vec::new(); tree.len()];
    for p in tree.preorder() {
        chi_names[p.index()] = tree
            .node(p)
            .chi
            .iter()
            .map(|v| h.var_name(v).to_string())
            .collect();
    }

    // P′: per-vertex joins, in preorder.
    let mut rels: Vec<Option<CRel>> = (0..tree.len()).map(|_| None).collect();
    for p in tree.preorder() {
        rels[p.index()] = Some(vertex_join(
            db,
            q,
            tree,
            p,
            &chi_names[p.index()],
            budget,
            opts.index_join,
        )?);
    }
    let rels = rels
        .into_iter()
        .map(|r| r.expect("preorder visits every vertex"))
        .collect();
    Ok((chi_names, rels))
}

/// The pipeline behind [`evaluate_qhd_with`], answer still columnar.
pub(crate) fn evaluate_qhd_c(
    db: &Database,
    q: &ConjunctiveQuery,
    plan: &QhdPlan,
    budget: &mut Budget,
    opts: &ExecOptions,
) -> Result<CRel, EvalError> {
    let tree = &plan.tree;
    let (chi_names, rels) = vertex_relations(db, q, plan, budget, opts)?;
    let mut vertex_rel: Vec<Option<CRel>> = rels.into_iter().map(Some).collect();

    // P″: single bottom-up pass, support children joined first.
    let result_root = eval_bottom_up(tree, tree.root(), &chi_names, &mut vertex_rel, budget)?;

    // P‴: project the root onto out(Q).
    let out = q.out_vars();
    let result = cops::project(&result_root, &out, true, budget)?;
    // A session's budget is a shared handle (`Budget::fork`): its charges
    // are batched and may not trip inline (see `Budget::charge`), so
    // surface exhaustion before declaring success.
    budget.check_exceeded()?;
    Ok(result)
}

/// `P′` for one vertex: scan `assigned(p) ∪ λ(p)`, join them, project
/// onto χ(p) (restricted to available variables). With `index_join` set
/// and a catalog carrying secondary indexes, multi-atom vertices may run
/// as index-nested-loop seeks instead ([`seek_vertex_join`]); the result
/// bag is identical either way.
fn vertex_join(
    db: &Database,
    q: &ConjunctiveQuery,
    tree: &htqo_core::Hypertree,
    p: NodeId,
    chi: &[String],
    budget: &mut Budget,
    index_join: bool,
) -> Result<CRel, EvalError> {
    budget.check_time()?;
    htqo_engine::fail_point!("qeval::vertex");
    let n = tree.node(p);
    let atoms = n.assigned.union(&n.lambda);
    let atom_ids: Vec<AtomId> = atoms.iter().map(|e| AtomId(e.0)).collect();
    if index_join && db.has_indexes() && atom_ids.len() > 1 {
        if let Some(joined) = seek_vertex_join(db, q, &atom_ids, budget)? {
            return cops::project_onto_available(&joined, chi, budget);
        }
    }
    let mut scanned: Vec<CRel> = Vec::with_capacity(atom_ids.len());
    for &a in &atom_ids {
        scanned.push(scan_query_atom_c(db, q, a, budget)?);
    }
    let joined = join_connected_greedy(scanned, budget)?;
    cops::project_onto_available(&joined, chi, budget)
}

/// Index-aware variant of the per-vertex join: starts from the atom with
/// the smallest base table and folds the remaining atoms in, preferring
/// connected atoms with small base tables ([`join_connected_greedy`]'s
/// heuristic lifted to base cardinalities, which are known *before*
/// scanning). An atom is joined by index seek when the accumulator is
/// small relative to its base table and a registered index covers a
/// shared variable; otherwise it is scanned and hash-joined as usual.
///
/// Returns `Ok(None)` when no atom of the vertex is seek-eligible — the
/// caller then takes the classic scan-everything path, so catalogs
/// without (relevant) indexes see bit-identical behavior and charges.
/// All decisions depend only on base-table sizes and accumulator row
/// counts, preserving determinism.
fn seek_vertex_join(
    db: &Database,
    q: &ConjunctiveQuery,
    atom_ids: &[AtomId],
    budget: &mut Budget,
) -> Result<Option<CRel>, EvalError> {
    let vars_of =
        |a: AtomId| -> Vec<String> { q.atom(a).args.iter().map(|(_, v)| v.clone()).collect() };
    // Cheap gate: some atom must be seekable from the other atoms' vars.
    let eligible = atom_ids.iter().any(|&a| {
        let others: Vec<String> = atom_ids
            .iter()
            .filter(|&&o| o != a)
            .flat_map(|&o| vars_of(o))
            .collect();
        iseek::seek_eligible(db, q, a, &others)
    });
    if !eligible {
        return Ok(None);
    }
    let mut remaining: Vec<(AtomId, usize)> = Vec::with_capacity(atom_ids.len());
    for &a in atom_ids {
        match db.table(&q.atom(a).relation) {
            Some(rel) => remaining.push((a, rel.len())),
            // Let the scan path surface the unknown-table error.
            None => return Ok(None),
        }
    }
    let start_pos = remaining
        .iter()
        .enumerate()
        .min_by_key(|(_, &(a, len))| (len, a.0))
        .map(|(i, _)| i)
        .expect("vertex has atoms");
    let (start, _) = remaining.remove(start_pos);
    let mut acc = scan_query_atom_c(db, q, start, budget)?;
    while !remaining.is_empty() {
        let connected = remaining
            .iter()
            .enumerate()
            .filter(|(_, &(a, _))| vars_of(a).iter().any(|v| acc.col_index(v).is_some()))
            .min_by_key(|(_, &(a, len))| (len, a.0))
            .map(|(i, _)| i);
        let pos = connected.unwrap_or_else(|| {
            // Forced cross product: smallest remaining base table.
            remaining
                .iter()
                .enumerate()
                .min_by_key(|(_, &(a, len))| (len, a.0))
                .map(|(i, _)| i)
                .expect("non-empty")
        });
        let (a, base_len) = remaining.remove(pos);
        // A seek pays one probe per accumulator row; a hash join pays the
        // full scan + build. Prefer the seek only when the accumulator is
        // decisively smaller than the base table.
        let seek_profitable = acc.len().saturating_mul(4) <= base_len;
        let seeked = if seek_profitable {
            iseek::index_seek_join(db, q, a, &acc, budget)?
        } else {
            None
        };
        acc = match seeked {
            Some(r) => r,
            None => {
                let scanned = scan_query_atom_c(db, q, a, budget)?;
                cops::natural_join(&acc, &scanned, budget)?
            }
        };
    }
    Ok(Some(acc))
}

/// Joins a set of relations preferring variable-connected pairs: start
/// from the smallest relation, repeatedly join the smallest relation
/// sharing a variable with the accumulator, and only cross-product when no
/// connected relation remains. This is the "choice of the topological
/// order" freedom the paper grants the evaluator (Section 4) applied
/// within one vertex.
fn join_connected_greedy(mut inputs: Vec<CRel>, budget: &mut Budget) -> Result<CRel, EvalError> {
    let Some(first_idx) = inputs
        .iter()
        .enumerate()
        .min_by_key(|(_, r)| r.len())
        .map(|(i, _)| i)
    else {
        return Ok(CRel::neutral());
    };
    let mut acc = inputs.swap_remove(first_idx);
    while !inputs.is_empty() {
        let connected = inputs
            .iter()
            .enumerate()
            .filter(|(_, r)| r.cols().iter().any(|c| acc.col_index(c).is_some()))
            .min_by_key(|(_, r)| r.len())
            .map(|(i, _)| i);
        let idx = connected.unwrap_or_else(|| {
            // Forced cross product: take the smallest remaining input.
            inputs
                .iter()
                .enumerate()
                .min_by_key(|(_, r)| r.len())
                .map(|(i, _)| i)
                .expect("non-empty")
        });
        let next = inputs.swap_remove(idx);
        acc = cops::natural_join(&acc, &next, budget)?;
    }
    Ok(acc)
}

fn eval_bottom_up(
    tree: &htqo_core::Hypertree,
    p: NodeId,
    chi_names: &[Vec<String>],
    vertex_rel: &mut [Option<CRel>],
    budget: &mut Budget,
) -> Result<CRel, EvalError> {
    let node = tree.node(p);
    // Children order: support children first, then the rest.
    let mut order: Vec<NodeId> = node.support_children.clone();
    for &c in &node.children {
        if !order.contains(&c) {
            order.push(c);
        }
    }

    // Evaluate the subtrees below the children, then fold the joins in
    // support-first order below.
    htqo_engine::fail_point!("qeval::bottom_up");
    let children = order
        .iter()
        .map(|&c| eval_bottom_up(tree, c, chi_names, vertex_rel, budget))
        .collect::<Result<Vec<CRel>, EvalError>>()?;

    let mut acc = vertex_rel[p.index()]
        .take()
        .expect("vertex relation computed");
    for child in children {
        budget.check_time()?;
        // Early projection: by the connectedness condition, the only child
        // variables the parent (or any sibling) can ever see are those in
        // χ(p), so the rest are dead weight — drop them (with dedup)
        // before the join instead of after.
        let child = cops::project_onto_available(&child, &chi_names[p.index()], budget)?;
        acc = cops::natural_join(&acc, &child, budget)?;
        // Project eagerly after each child join to keep intermediates at
        // χ(p) arity (still a *join*, not a semijoin: children may supply
        // χ(p) variables the vertex's own atoms lack).
        acc = cops::project_onto_available(&acc, &chi_names[p.index()], budget)?;
    }
    Ok(acc)
}

/// Evaluates `q` end-to-end: q-hypertree evaluation followed by the final
/// aggregation/ordering step (step (4) of the paper's pipeline).
pub fn evaluate_qhd_query(
    db: &Database,
    q: &ConjunctiveQuery,
    plan: &QhdPlan,
    budget: &mut Budget,
) -> Result<VRelation, EvalError> {
    evaluate_qhd_query_with(db, q, plan, budget, &ExecOptions::default())
}

/// [`evaluate_qhd_query`] with explicit execution options. The answer
/// stays columnar end to end — the final aggregation front runs
/// column-at-a-time too ([`htqo_engine::aggregate::finalize_c`]). When
/// [`ExecOptions::factorized`] is set and the query/plan qualify, the
/// aggregate is computed from a factorized cover without materializing
/// the join ([`crate::factorized`]).
pub fn evaluate_qhd_query_with(
    db: &Database,
    q: &ConjunctiveQuery,
    plan: &QhdPlan,
    budget: &mut Budget,
    opts: &ExecOptions,
) -> Result<VRelation, EvalError> {
    let mut trace = crate::factorized::FactorizedTrace::default();
    crate::factorized::evaluate_qhd_query_traced(db, q, plan, budget, opts, &mut trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::evaluate_naive;
    use htqo_core::{q_hypertree_decomp, QhdOptions, StructuralCost};
    use htqo_cq::CqBuilder;
    use htqo_engine::relation::Relation;
    use htqo_engine::schema::{ColumnType, Schema};
    use htqo_engine::value::Value;

    fn db_for(names: &[&str], rows_per: i64, domain: i64, seed: i64) -> Database {
        let mut db = Database::new();
        for (k, name) in names.iter().enumerate() {
            let mut r = Relation::new(Schema::new(&[
                ("l", ColumnType::Int),
                ("r", ColumnType::Int),
            ]));
            for t in 0..rows_per {
                let a = (t * 7 + k as i64 * 3 + seed) % domain;
                let b = (t * 11 + k as i64 * 5 + seed * 2) % domain;
                r.push_row(vec![Value::Int(a), Value::Int(b)]).unwrap();
            }
            db.insert_table(name, r);
        }
        db
    }

    fn chain_query(n: usize, out: &[&str]) -> htqo_cq::ConjunctiveQuery {
        // Cyclic chain: p0(X0,X1), ..., p{n-1}(X{n-1},X0).
        let mut b = CqBuilder::new();
        for i in 0..n {
            let l = format!("X{i}");
            let r = format!("X{}", (i + 1) % n);
            b = b.atom(&format!("p{i}"), &format!("p{i}"), &[("l", &l), ("r", &r)]);
        }
        for v in out {
            b = b.out_var(v);
        }
        b.build()
    }

    #[test]
    fn qhd_matches_naive_on_cyclic_chains() {
        for n in 3..=6 {
            let names: Vec<String> = (0..n).map(|i| format!("p{i}")).collect();
            let name_refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
            let db = db_for(&name_refs, 30, 6, n as i64);
            let q = chain_query(n, &["X0", "X1"]);
            let plan = q_hypertree_decomp(&q, &QhdOptions::default(), &StructuralCost).unwrap();
            let mut b1 = Budget::unlimited();
            let mut b2 = Budget::unlimited();
            let qhd = evaluate_qhd(&db, &q, &plan, &mut b1).unwrap();
            let naive = evaluate_naive(&db, &q, &mut b2).unwrap();
            assert!(qhd.set_eq(&naive), "mismatch at n={n}");
        }
    }

    #[test]
    fn qhd_matches_naive_with_optimize_disabled() {
        let db = db_for(&["p0", "p1", "p2", "p3"], 25, 5, 1);
        let q = chain_query(4, &["X0"]);
        for run_optimize in [true, false] {
            let plan = q_hypertree_decomp(
                &q,
                &QhdOptions {
                    max_width: 3,
                    run_optimize,
                },
                &StructuralCost,
            )
            .unwrap();
            let mut b1 = Budget::unlimited();
            let mut b2 = Budget::unlimited();
            let qhd = evaluate_qhd(&db, &q, &plan, &mut b1).unwrap();
            let naive = evaluate_naive(&db, &q, &mut b2).unwrap();
            assert!(qhd.set_eq(&naive), "optimize={run_optimize}");
        }
    }

    #[test]
    fn boolean_cyclic_query() {
        let db = db_for(&["p0", "p1", "p2"], 20, 4, 2);
        let q = chain_query(3, &[]);
        let plan = q_hypertree_decomp(&q, &QhdOptions::default(), &StructuralCost).unwrap();
        let mut b1 = Budget::unlimited();
        let mut b2 = Budget::unlimited();
        let qhd = evaluate_qhd(&db, &q, &plan, &mut b1).unwrap();
        let naive = evaluate_naive(&db, &q, &mut b2).unwrap();
        assert_eq!(qhd.len(), naive.len());
    }

    #[test]
    fn empty_result_propagates() {
        // Disjoint domains: no join results.
        let mut db = Database::new();
        let mut p0 = Relation::new(Schema::new(&[
            ("l", ColumnType::Int),
            ("r", ColumnType::Int),
        ]));
        p0.push_row(vec![Value::Int(1), Value::Int(2)]).unwrap();
        let mut p1 = Relation::new(Schema::new(&[
            ("l", ColumnType::Int),
            ("r", ColumnType::Int),
        ]));
        p1.push_row(vec![Value::Int(7), Value::Int(8)]).unwrap();
        db.insert_table("p0", p0);
        db.insert_table("p1", p1);
        let q = CqBuilder::new()
            .atom("p0", "p0", &[("l", "A"), ("r", "B")])
            .atom("p1", "p1", &[("l", "B"), ("r", "C")])
            .out_var("A")
            .build();
        let plan = q_hypertree_decomp(&q, &QhdOptions::default(), &StructuralCost).unwrap();
        let mut budget = Budget::unlimited();
        let ans = evaluate_qhd(&db, &q, &plan, &mut budget).unwrap();
        assert!(ans.is_empty());
    }

    #[test]
    fn budget_limits_qhd_too() {
        let db = db_for(&["p0", "p1", "p2", "p3"], 50, 3, 3);
        let q = chain_query(4, &["X0"]);
        let plan = q_hypertree_decomp(&q, &QhdOptions::default(), &StructuralCost).unwrap();
        let mut budget = Budget::unlimited().with_max_tuples(10);
        assert_eq!(
            evaluate_qhd(&db, &q, &plan, &mut budget).unwrap_err(),
            EvalError::TupleBudgetExceeded { limit: 10 }
        );
    }
}
