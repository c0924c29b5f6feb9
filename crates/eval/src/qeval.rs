//! The **q-hypertree evaluator** (Section 4 of the paper): evaluates a
//! conjunctive query along a good q-hypertree decomposition with a *single*
//! bottom-up pass.
//!
//! - `P′` — for each vertex `p`, children before parents, join the
//!   relations of the atoms enforced or bounded at `p`
//!   (`assigned(p) ∪ λ(p)`) and project onto `χ(p)` (restricted to the
//!   variables those atoms actually carry — after `Optimize` some χ
//!   variables are only supplied by children, feature (b) of
//!   Definition 2). Before the join, each atom is semijoin-filtered by the
//!   finished `P′` relation of each child that is decisively smaller
//!   ([`cops::narrow`], the bottom-up half of the Yannakakis program);
//!   this removes only rows no answer extends, so `P″` is unchanged;
//! - `P″` — bottom-up, apply each child's result to its vertex's
//!   relation: a child that carries no χ(p) variable the relation lacks
//!   only filters it and is applied as a semijoin; a child that supplies
//!   one (a variable `Optimize` took from λ(p)) is joined and the result
//!   projected onto `χ(p)`. Filters go first, the rest *support children
//!   first* (the ordering caveat at the end of Section 4.1);
//! - `P‴` — project the root onto `out(Q)`.
//!
//! Because the root covers all output variables (Condition 2), no top-down
//! or second bottom-up pass is needed.
//!
//! An aggregate query is answered over SQL's bag, not the set `CQ(Q)`:
//! the same pass runs on *counted* relations ([`htqo_engine::crel::COUNT`]).
//! A `P′` row counts the join rows of the atoms *assigned* to its vertex
//! (each `⊆ χ(p)`); a λ atom the vertex does not enforce only bounds it,
//! as the distinct rows of its χ variables ([`cops::bound`]); narrowing
//! only filters. In `P″` a filter child multiplies each row's count by
//! its partners' summed counts, a supplying child is joined (counts
//! multiply) and projected with counts summed. The root relation and its
//! counts go to the aggregate without `P‴`: every atom is counted at
//! exactly one vertex, and the decomposition's connectedness makes the
//! bottom-up sums count every combination of base rows once.
//!
//! Intermediate relations are columnar [`CRel`]s (flat typed columns,
//! dictionary-encoded strings, gather-based output) from the scans to the
//! root; the answer is converted to the client-facing [`VRelation`] once,
//! at the boundary. Inside a `P′` vertex nothing is gathered until the
//! end: the scans hand over stored columns plus selection vectors, and
//! [`cops::join_vertex`] carries one position list per joined atom,
//! gathering each column that survives into χ(p) once. On a catalog with
//! secondary indexes, that join probes an atom's index instead of
//! hash-joining it where the accumulator is small enough for the probes
//! to pay.

use htqo_core::hypertree::{Node, NodeId};
use htqo_core::QhdPlan;
use htqo_cq::{ConjunctiveQuery, CqHypergraph, Filter};
use htqo_engine::cops;
use htqo_engine::crel::{CRel, Name};
use htqo_engine::error::{Budget, EvalError};
use htqo_engine::scan::select_atom;
use htqo_engine::schema::Database;
use htqo_engine::vrel::VRelation;

/// Evaluates `q` on `db` along the decomposition in `plan`, returning the
/// answer relation over `out(Q)` (set semantics). Every limit, the
/// memory limit included, is the budget's.
pub fn evaluate_qhd(
    db: &Database,
    q: &ConjunctiveQuery,
    plan: &QhdPlan,
    budget: &mut Budget,
) -> Result<VRelation, EvalError> {
    Ok(evaluate_qhd_c(db, q, plan, budget)?.to_vrel())
}

/// Nothing: evaluator options once went here. Kept, with
/// [`evaluate_qhd_with`], only because the `e2e/` benchmark names them; a
/// change to the benchmark drops the calls and then both.
#[doc(hidden)]
#[derive(Clone, Copy, Debug, Default)]
pub struct ExecOptions;

/// [`evaluate_qhd`]; `opts` is not read.
#[doc(hidden)]
pub fn evaluate_qhd_with(
    db: &Database,
    q: &ConjunctiveQuery,
    plan: &QhdPlan,
    budget: &mut Budget,
    _opts: &ExecOptions,
) -> Result<VRelation, EvalError> {
    evaluate_qhd(db, q, plan, budget)
}

/// `P′` and `P″`: the root's relation over χ(root), counted when
/// `counted` (see the module docs). Every name is the plan's own
/// ([`Name`]), cloned, never rebuilt.
fn root_relation(
    db: &Database,
    q: &ConjunctiveQuery,
    plan: &QhdPlan,
    counted: bool,
    budget: &mut Budget,
) -> Result<CRel, EvalError> {
    let tree = &plan.tree;
    let h = &plan.cq_hypergraph.hypergraph;

    // P′: per-vertex joins, children before parents, so that each vertex
    // can be narrowed by its children's finished relations.
    let mut chi_names: Vec<Vec<Name>> = vec![Vec::new(); tree.len()];
    let mut rels: Vec<Option<CRel>> = (0..tree.len()).map(|_| None).collect();
    for p in tree.postorder() {
        let node = tree.node(p);
        let chi = node.chi.iter().map(|v| h.shared_var_name(v).clone());
        chi_names[p.index()] = chi.collect();
        let children: Vec<&CRel> = (node.children.iter())
            .map(|c| rels[c.index()].as_ref().expect("postorder"))
            .collect();
        let chi = &chi_names[p.index()];
        let scan = (db, q, &plan.cq_hypergraph);
        let joined = vertex_join(scan, node, chi, &children, counted, budget)?;
        rels[p.index()] = Some(joined);
    }
    // P″: single bottom-up pass, support children joined first.
    eval_bottom_up(tree, tree.root(), &chi_names, &mut rels, budget)
}

/// How many times smaller than an atom's selection a child's `P′`
/// relation must be before it filters that atom ([`cops::narrow`]).
/// Below it, the filter costs about what it saves.
const MARGIN: usize = 4;

/// True if `small` is at least [`MARGIN`] times smaller than `big`.
fn decisively_smaller(small: usize, big: usize) -> bool {
    small.saturating_mul(MARGIN) <= big
}

/// The pipeline behind [`evaluate_qhd`], answer still columnar.
fn evaluate_qhd_c(
    db: &Database,
    q: &ConjunctiveQuery,
    plan: &QhdPlan,
    budget: &mut Budget,
) -> Result<CRel, EvalError> {
    let result_root = root_relation(db, q, plan, false, budget)?;

    // P‴: project the root onto out(Q).
    let out = q.out_vars();
    let result = cops::project(&result_root, &out, true, budget)?;
    // A session's budget is a shared handle (`Budget::fork`): its charges
    // are batched and may not trip inline (see `Budget::charge`), so
    // surface exhaustion before declaring success.
    budget.check_exceeded()?;
    Ok(result)
}

/// `P′` for one vertex: select `assigned(p) ∪ λ(p)`, narrow each selection
/// by the finished relations of `children` that are decisively smaller
/// than it ([`cops::narrow`]), join them, project onto χ(p) (restricted to
/// available variables). An atom read from an indexed column may be
/// joined by index seek inside the join ([`cops::join_vertex`]); the
/// answer is the same set either way. Counted, only the assigned atoms
/// count: each λ atom outside `assigned(p)` joins as its distinct rows
/// over χ(p) ([`cops::bound`]).
fn vertex_join(
    (db, q, ch): (&Database, &ConjunctiveQuery, &CqHypergraph),
    n: &Node,
    chi: &[Name],
    children: &[&CRel],
    counted: bool,
    budget: &mut Budget,
) -> Result<CRel, EvalError> {
    budget.check_time()?;
    htqo_engine::fail_point!("qeval::vertex");
    // `assigned(p) ∪ λ(p)`, ascending, without building the union.
    let atoms =
        (ch.hypergraph.edge_ids()).filter(|&e| n.assigned.contains(e) || n.lambda.contains(e));
    let mut selected = Vec::with_capacity(n.assigned.len() + n.lambda.len());
    for e in atoms {
        let a = ch.atom_of_edge(e);
        let (atom, vars) = (q.atom(a), &ch.atom_vars[a.index()][..]);
        let filters: Vec<&Filter> = q.filters_of(a).collect();
        selected.push(select_atom(db, atom, vars, &filters, true, budget)?);
    }
    for child in children {
        let worth = |rows| decisively_smaller(child.len(), rows);
        cops::narrow(&mut selected, child, worth, budget);
    }
    if !counted {
        return cops::join_vertex(selected, chi, budget);
    }
    let atoms =
        (ch.hypergraph.edge_ids()).filter(|&e| n.assigned.contains(e) || n.lambda.contains(e));
    let mut inputs = Vec::with_capacity(selected.len());
    for (e, s) in atoms.zip(selected) {
        if n.assigned.contains(e) {
            inputs.push(s);
        } else if let Some(bound) = cops::bound(s, chi, budget)? {
            inputs.push(bound);
        }
    }
    cops::join_vertex_counted(inputs, chi, budget)
}

/// `P″` below and at `p`: the children's results first, then each child
/// applied to `p`'s `P′` relation, which stays projected onto χ(p).
///
/// A child whose χ(p) variables the relation already holds is a
/// *filter*: its distinct projection onto χ(p) holds only columns of
/// the relation, so joining that projection adds no column and meets
/// each row at most once. It is applied as the semijoin `acc ⋉ child`
/// ([`cops::semijoin`]) — no child projection, no join table, no output
/// gather. The filters go first, against `P′(p)`; the other children
/// follow in support-first order, each again a filter if an earlier join
/// has by then supplied its χ(p) variables. Only a child that supplies a
/// variable `Optimize` took from λ(p) is still joined.
fn eval_bottom_up(
    tree: &htqo_core::Hypertree,
    p: NodeId,
    chi_names: &[Vec<Name>],
    vertex_rel: &mut [Option<CRel>],
    budget: &mut Budget,
) -> Result<CRel, EvalError> {
    let node = tree.node(p);
    // Children order: support children first, then the rest.
    let support = &node.support_children;
    let rest = node.children.iter().filter(|c| !support.contains(c));

    // Evaluate the subtrees below the children, then apply them in the
    // order above.
    htqo_engine::fail_point!("qeval::bottom_up");
    let mut children = (support.iter().chain(rest))
        .map(|&c| eval_bottom_up(tree, c, chi_names, vertex_rel, budget).map(Some))
        .collect::<Result<Vec<Option<CRel>>, EvalError>>()?;

    let chi = &chi_names[p.index()];
    let mut acc = vertex_rel[p.index()]
        .take()
        .expect("vertex relation computed");
    // Two passes over the children: the filters, then all that is left.
    for filters_only in [true, false] {
        for slot in &mut children {
            let is_filter = slot
                .as_ref()
                .is_some_and(|c| supplies_nothing(&acc, c, chi));
            let Some(child) = slot.take_if(|_| is_filter || !filters_only) else {
                continue;
            };
            budget.check_time()?;
            acc = if is_filter {
                filter(acc, child, chi, budget)?
            } else {
                join(acc, child, chi, budget)?
            };
        }
    }
    Ok(acc)
}

/// True if every χ(p) variable `child` carries is already a column of
/// `acc`.
fn supplies_nothing(acc: &CRel, child: &CRel, chi: &[Name]) -> bool {
    (child.cols().iter()).all(|v| !chi.contains(v) || acc.col_index(v).is_some())
}

/// `acc ⋉ child`. The shared variables are the χ(p) variables `child`
/// carries, since `acc`'s columns lie in χ(p). A semijoin that runs out
/// of memory — typically its key set's reservation denied — gives way to
/// [`join`], which can spill; the answer is the same set, and a limit
/// that is really exhausted fails there.
fn filter(acc: CRel, child: CRel, chi: &[Name], budget: &mut Budget) -> Result<CRel, EvalError> {
    match cops::semijoin(&acc, &child, budget) {
        Err(EvalError::MemoryExceeded { .. }) => join(acc, child, chi, budget),
        filtered => filtered,
    }
}

/// `acc ⋈ child`, projected onto χ(p).
fn join(acc: CRel, child: CRel, chi: &[Name], budget: &mut Budget) -> Result<CRel, EvalError> {
    // Early projection: by the connectedness condition, the only child
    // variables the parent (or any sibling) can ever see are those in
    // χ(p), so the rest are dead weight — drop them (with dedup) before
    // the join instead of after.
    let child = cops::project_onto_available(child, chi, budget)?;
    let joined = cops::natural_join(&acc, &child, budget)?;
    // Project eagerly after each join to keep intermediates at χ(p)
    // arity.
    cops::project_onto_available(joined, chi, budget)
}

/// Evaluates `q` end-to-end: q-hypertree evaluation followed by the final
/// aggregation/ordering step (step (4) of the paper's pipeline). The
/// answer stays columnar end to end — the final aggregation front runs
/// column-at-a-time too ([`htqo_engine::aggregate::finalize_c`]). An
/// aggregate query reads the counted root relation (module docs): SQL's
/// bag, without `P‴`.
pub fn evaluate_qhd_query(
    db: &Database,
    q: &ConjunctiveQuery,
    plan: &QhdPlan,
    budget: &mut Budget,
) -> Result<VRelation, EvalError> {
    let answer = if q.has_aggregates() {
        let root = root_relation(db, q, plan, true, budget)?;
        budget.check_exceeded()?;
        root
    } else {
        evaluate_qhd_c(db, q, plan, budget)?
    };
    htqo_engine::aggregate::finalize_c(&answer, q, budget)
}

/// Nothing: which path answered a query once went here. Kept, with
/// [`evaluate_qhd_query_traced`], only because the `e2e/` benchmark calls
/// them by these names; a change to the benchmark drops the calls and
/// then both.
#[derive(Debug, Clone, Copy, Default)]
pub struct FactorizedTrace;

/// [`evaluate_qhd_query`]; `opts` is not read and `trace` is not written.
pub fn evaluate_qhd_query_traced(
    db: &Database,
    q: &ConjunctiveQuery,
    plan: &QhdPlan,
    budget: &mut Budget,
    _opts: &ExecOptions,
    _trace: &mut FactorizedTrace,
) -> Result<VRelation, EvalError> {
    evaluate_qhd_query(db, q, plan, budget)
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
