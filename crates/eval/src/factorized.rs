//! Factorized evaluation fronts: wire the engine's cover representation
//! ([`htqo_engine::factorized`]) into the q-hypertree and Yannakakis
//! pipelines.
//!
//! Both evaluators share the pattern: run the pipeline's own first phase
//! (`P′` vertex joins / atom scans) once, link its per-vertex relations
//! along the decomposition tree into a [`Cover`] — which borrows them:
//! their columns are shared, not copied — and then either
//!
//! * finalize aggregates from the root's answer counts in the engine's one
//!   grouping kernel ([`evaluate_qhd_query_traced`],
//!   [`evaluate_yannakakis_query_traced`]) — never materializing the
//!   join — or
//! * hand back a constant-delay answer iterator ([`qhd_answer_rows`]).
//!
//! Eligibility is checked statically where possible (an aggregate query,
//! stitchability, root coverage of the aggregate inputs — see DESIGN.md
//! §3.11). No output shape is refused: ORDER BY, LIMIT, AVG and float
//! SUM come out of the cover with the materialized pipeline's bits, in
//! its order. Data-dependent conditions (the answer-determines-link
//! check, answer counts past `u64`, weights a float sum cannot apply
//! exactly, denied reservations) surface at runtime as
//! [`CoverError::Ineligible`]; the front then runs the rest of the
//! materialized pipeline, which can spill, on the same first-phase
//! relations, so no query evaluates them twice. The [`FactorizedTrace`]
//! records which path produced the result, for optimizer telemetry.

use std::collections::HashSet;

use htqo_core::QhdPlan;
use htqo_cq::{ConjunctiveQuery, OutputItem};
use htqo_engine::crel::CRel;
use htqo_engine::error::{Budget, EvalError};
use htqo_engine::exec::ExecOptions;
use htqo_engine::factorized::{
    build_cover, finalize_cover, Cover, CoverError, CoverInput, CoverRows,
};
use htqo_engine::schema::Database;
use htqo_engine::value::Row;
use htqo_engine::vrel::VRelation;
use htqo_engine::Name;
use htqo_hypergraph::{EdgeId, JoinForest};

use crate::qeval::{join_up, vertex_relations, Vertices};
use crate::yannakakis::{join_forest, reduce_and_join, scan_atoms};

/// Which path produced a query result, for `QueryOutcome` telemetry.
#[derive(Debug, Clone, Default)]
pub struct FactorizedTrace {
    /// The factorized path produced the result.
    pub factorized: bool,
    /// Why the factorized path was skipped or abandoned (static
    /// ineligibility or a runtime degrade), if it was.
    pub fallback: Option<String>,
    /// Exact answer cardinality — the cover total when factorized, the
    /// materialized answer row count otherwise.
    pub answer_rows: Option<u64>,
}

/// Variables the weighted finalize must find on the root vertex: GROUP BY
/// variables and every variable inside an aggregate expression.
fn aggregate_input_vars(q: &ConjunctiveQuery) -> Vec<&str> {
    let mut vars: Vec<&str> = q.group_by.iter().map(|s| s.as_str()).collect();
    for item in &q.output {
        if let OutputItem::Aggregate { expr: Some(e), .. } = item {
            for v in e.vars() {
                if !vars.contains(&v) {
                    vars.push(v);
                }
            }
        }
    }
    vars
}

/// `avail(v)` per vertex (indexed by `NodeId::index`): the χ variables the
/// vertex's own atoms (`assigned ∪ λ`) actually carry — the columns of its
/// `P′` relation.
fn qhd_avail(plan: &QhdPlan) -> Vec<HashSet<String>> {
    let tree = &plan.tree;
    let h = &plan.cq_hypergraph.hypergraph;
    let mut avail = vec![HashSet::new(); tree.len()];
    for p in tree.preorder() {
        let n = tree.node(p);
        let atoms = n.assigned.union(&n.lambda);
        let mut atom_vars: HashSet<&str> = HashSet::new();
        for e in atoms.iter() {
            for v in h.edge_vars(e).iter() {
                atom_vars.insert(h.var_name(v));
            }
        }
        avail[p.index()] = n
            .chi
            .iter()
            .map(|v| h.var_name(v))
            .filter(|name| atom_vars.contains(*name))
            .map(str::to_string)
            .collect();
    }
    avail
}

/// Structural stitchability of a q-hypertree plan: every variable a vertex
/// shares with its parent's χ must be *available* at the parent (after
/// `Optimize`, some χ variables are supplied only by children — such a
/// plan cannot link parent and child rows by key equality alone).
fn qhd_stitchable(plan: &QhdPlan) -> Result<(), String> {
    let tree = &plan.tree;
    let h = &plan.cq_hypergraph.hypergraph;
    let avail = qhd_avail(plan);
    for p in tree.preorder() {
        let chi_p: HashSet<&str> = tree.node(p).chi.iter().map(|v| h.var_name(v)).collect();
        for &c in &tree.node(p).children {
            for name in &avail[c.index()] {
                if chi_p.contains(name.as_str()) && !avail[p.index()].contains(name) {
                    return Err(format!(
                        "variable `{name}` is in a parent's scope but only its children supply it"
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Static eligibility of the factorized *aggregate* path for a
/// q-hypertree plan: an aggregate query, stitchability, and root coverage
/// of every aggregation input. Data-dependent conditions are still
/// checked during the cover build and the finalize.
fn qhd_factorized_check(q: &ConjunctiveQuery, plan: &QhdPlan) -> Result<(), String> {
    if !q.has_aggregates() {
        return Err("not an aggregate query".into());
    }
    let avail = qhd_avail(plan);
    let root = &avail[plan.tree.root().index()];
    for v in aggregate_input_vars(q) {
        if !root.contains(v) {
            return Err(format!(
                "aggregation input `{v}` is not available at the decomposition root"
            ));
        }
    }
    qhd_stitchable(plan)
}

/// Builds a cover over the plan's `P′` vertex relations (children linked
/// to parents, scopes = χ), borrowing them.
fn qhd_cover(
    q: &ConjunctiveQuery,
    plan: &QhdPlan,
    (chi_names, rels): &Vertices,
    budget: &mut Budget,
) -> Result<Cover, CoverError> {
    let tree = &plan.tree;
    let mut parents: Vec<Option<usize>> = vec![None; tree.len()];
    for p in tree.preorder() {
        for &c in &tree.node(p).children {
            parents[c.index()] = Some(p.index());
        }
    }
    build_cover(
        CoverInput {
            rels: rels.clone(),
            parents,
            scopes: chi_names.clone(),
        },
        q,
        budget,
    )
}

/// The aggregate answer finalized from `cover`, with the exact answer
/// cardinality.
fn finalize_counted(
    cover: Cover,
    q: &ConjunctiveQuery,
    budget: &mut Budget,
) -> Result<(VRelation, u64), CoverError> {
    let rows = cover.total();
    let out = finalize_cover(cover, q, budget)?;
    // Same final check as the materialized pipeline: a shared budget's
    // charges are batched, so surface exhaustion before declaring success.
    budget.check_exceeded().map_err(CoverError::Eval)?;
    Ok((out, rows))
}

/// Records a factorized aggregate attempt in `trace`: its answer, or
/// `None` — and why — when the caller must materialize instead.
fn record(
    trace: &mut FactorizedTrace,
    attempt: Result<(VRelation, u64), CoverError>,
) -> Result<Option<VRelation>, EvalError> {
    match attempt {
        Ok((out, rows)) => {
            trace.factorized = true;
            trace.answer_rows = Some(rows);
            Ok(Some(out))
        }
        Err(CoverError::Ineligible(reason)) => {
            trace.fallback = Some(reason);
            Ok(None)
        }
        Err(CoverError::Eval(e)) => Err(e),
    }
}

/// [`crate::qeval::evaluate_qhd_query_with`] with path telemetry: runs
/// `P′` once, then the factorized aggregate path when the query and plan
/// qualify, and `P″` on the same `P′` relations otherwise (recording why
/// in `trace`). Answers are identical either way, rows and order.
pub fn evaluate_qhd_query_traced(
    db: &Database,
    q: &ConjunctiveQuery,
    plan: &QhdPlan,
    budget: &mut Budget,
    opts: &ExecOptions,
    trace: &mut FactorizedTrace,
) -> Result<VRelation, EvalError> {
    *trace = FactorizedTrace::default();
    budget.apply_mem_limit(opts.mem_limit);
    let vertices = vertex_relations(db, q, plan, budget)?;
    if q.has_aggregates() {
        let attempt = (qhd_factorized_check(q, plan).map_err(CoverError::Ineligible))
            .and_then(|()| finalize_counted(qhd_cover(q, plan, &vertices, budget)?, q, budget));
        if let Some(out) = record(trace, attempt)? {
            return Ok(out);
        }
    }
    let answer = join_up(q, plan, vertices, budget)?;
    trace.answer_rows = Some(answer.len() as u64);
    htqo_engine::aggregate::finalize_c(&answer, q, budget)
}

/// A lazily produced answer stream over `out(Q)`: constant-delay
/// factorized enumeration when the cover build succeeds, a drained
/// materialized answer otherwise. Rows carry `Result` so budget
/// exhaustion and timeouts can surface mid-stream.
pub enum AnswerRows {
    /// Constant-delay enumeration over a cover.
    Factorized(Box<CoverRows>),
    /// Fallback: the fully materialized answer.
    Materialized {
        /// Answer column names, in `out(Q)` order.
        cols: Vec<String>,
        /// The materialized rows.
        rows: std::vec::IntoIter<Row>,
    },
}

impl AnswerRows {
    /// Answer column names, in `out(Q)` order.
    pub fn cols(&self) -> &[String] {
        match self {
            AnswerRows::Factorized(c) => c.cols(),
            AnswerRows::Materialized { cols, .. } => cols,
        }
    }

    /// True if rows are enumerated from a cover rather than a
    /// materialized answer.
    pub fn is_factorized(&self) -> bool {
        matches!(self, AnswerRows::Factorized(_))
    }
}

impl Iterator for AnswerRows {
    type Item = Result<Row, EvalError>;

    fn next(&mut self) -> Option<Self::Item> {
        match self {
            AnswerRows::Factorized(c) => c.next(),
            AnswerRows::Materialized { rows, .. } => rows.next().map(Ok),
        }
    }
}

/// Evaluates `q` along `plan` into an [`AnswerRows`] stream: factorized
/// constant-delay enumeration when the plan and data qualify, `P″` on the
/// same `P′` relations otherwise. The streamed row multiset equals
/// [`crate::qeval::evaluate_qhd_with`]'s answer (order unspecified in
/// both).
pub fn qhd_answer_rows(
    db: &Database,
    q: &ConjunctiveQuery,
    plan: &QhdPlan,
    budget: &mut Budget,
    opts: &ExecOptions,
) -> Result<AnswerRows, EvalError> {
    budget.apply_mem_limit(opts.mem_limit);
    let vertices = vertex_relations(db, q, plan, budget)?;
    if qhd_stitchable(plan).is_ok() {
        match qhd_cover(q, plan, &vertices, budget) {
            Ok(cover) => return Ok(AnswerRows::Factorized(Box::new(cover.into_rows(budget)))),
            Err(CoverError::Ineligible(_)) => {}
            Err(CoverError::Eval(e)) => return Err(e),
        }
    }
    let answer = join_up(q, plan, vertices, budget)?.to_vrel();
    Ok(AnswerRows::Materialized {
        cols: answer.cols().to_vec(),
        rows: answer.into_rows().into_iter(),
    })
}

/// Static eligibility of the factorized aggregate path for Yannakakis:
/// an aggregate query and root coverage. A join forest is always
/// stitchable (a vertex's scope *is* its column set), but the GYO
/// forest's rooting is fixed, so aggregation inputs must sit on the
/// single root edge (or be empty over a multi-tree forest, whose
/// synthetic root has no columns) — no re-rooting is attempted.
fn yann_factorized_check(q: &ConjunctiveQuery, forest: &JoinForest) -> Result<(), String> {
    if !q.has_aggregates() {
        return Err("not an aggregate query".into());
    }
    let h = &q.hypergraph().hypergraph;
    let roots = forest.roots();
    let needed = aggregate_input_vars(q);
    if roots.len() == 1 {
        let root_vars: HashSet<&str> = (h.edge_vars(roots[0]).iter())
            .map(|v| h.var_name(v))
            .collect();
        for v in needed {
            if !root_vars.contains(v) {
                return Err(format!(
                    "aggregation input `{v}` is not on the join-forest root"
                ));
            }
        }
    } else if !needed.is_empty() {
        return Err("grouped aggregation over a multi-tree join forest".into());
    }
    Ok(())
}

/// Builds a cover over the query's atom scans linked along the GYO join
/// forest (scopes = edge variables; multiple trees stitch under the
/// engine's synthetic neutral root), borrowing the scans.
fn yann_cover(
    q: &ConjunctiveQuery,
    forest: &JoinForest,
    rels: &[CRel],
    budget: &mut Budget,
) -> Result<Cover, CoverError> {
    let h = &q.hypergraph().hypergraph;
    let n = rels.len();
    let parents: Vec<Option<usize>> = (0..n)
        .map(|i| forest.parent(EdgeId(i as u32)).map(|p| p.index()))
        .collect();
    let scopes: Vec<Vec<Name>> = (0..n)
        .map(|i| {
            (h.edge_vars(EdgeId(i as u32)).iter())
                .map(|v| h.shared_var_name(v).clone())
                .collect()
        })
        .collect();
    build_cover(
        CoverInput {
            rels: rels.to_vec(),
            parents,
            scopes,
        },
        q,
        budget,
    )
}

/// Evaluates an acyclic query end-to-end (Yannakakis + final aggregation)
/// with the process-wide defaults; see
/// [`evaluate_yannakakis_query_with`].
pub fn evaluate_yannakakis_query(
    db: &Database,
    q: &ConjunctiveQuery,
    budget: &mut Budget,
) -> Result<VRelation, EvalError> {
    evaluate_yannakakis_query_with(db, q, budget, &ExecOptions::default())
}

/// Evaluates an acyclic query end-to-end: the factorized aggregate path
/// when eligible, the three-pass pipeline plus
/// [`htqo_engine::aggregate::finalize_c`] otherwise.
pub fn evaluate_yannakakis_query_with(
    db: &Database,
    q: &ConjunctiveQuery,
    budget: &mut Budget,
    opts: &ExecOptions,
) -> Result<VRelation, EvalError> {
    let mut trace = FactorizedTrace::default();
    evaluate_yannakakis_query_traced(db, q, budget, opts, &mut trace)
}

/// [`evaluate_yannakakis_query_with`] with path telemetry; the atoms are
/// scanned once, whichever path answers.
pub fn evaluate_yannakakis_query_traced(
    db: &Database,
    q: &ConjunctiveQuery,
    budget: &mut Budget,
    opts: &ExecOptions,
    trace: &mut FactorizedTrace,
) -> Result<VRelation, EvalError> {
    *trace = FactorizedTrace::default();
    budget.apply_mem_limit(opts.mem_limit);
    let forest = join_forest(q)?;
    let rels = scan_atoms(db, q, budget)?;
    if q.has_aggregates() {
        let attempt = (yann_factorized_check(q, &forest).map_err(CoverError::Ineligible))
            .and_then(|()| finalize_counted(yann_cover(q, &forest, &rels, budget)?, q, budget));
        if let Some(out) = record(trace, attempt)? {
            return Ok(out);
        }
    }
    let ans = reduce_and_join(q, &forest, rels, budget)?;
    trace.answer_rows = Some(ans.len() as u64);
    htqo_engine::aggregate::finalize_c(&ans, q, budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use htqo_core::{q_hypertree_decomp, QhdOptions, StructuralCost};
    use htqo_cq::{AggFunc, CqBuilder};
    use htqo_engine::relation::Relation;
    use htqo_engine::schema::{ColumnType, Schema};
    use htqo_engine::value::Value;

    /// An acyclic star: hub(A,B) with chains off A and B, every relation
    /// carrying a rowid-style distinct column so COUNT sees bag
    /// multiplicities.
    fn star_db(rows: i64, domain: i64) -> Database {
        let mut db = Database::new();
        for (k, name) in ["hub", "ra", "rb"].iter().enumerate() {
            let mut r = Relation::new(Schema::new(&[
                ("l", ColumnType::Int),
                ("r", ColumnType::Int),
                ("id", ColumnType::Int),
            ]));
            for t in 0..rows {
                let a = (t * 7 + k as i64 * 3 + 1) % domain;
                let b = (t * 11 + k as i64 * 5 + 2) % domain;
                r.push_row(vec![Value::Int(a), Value::Int(b), Value::Int(t)])
                    .unwrap();
            }
            db.insert_table(name, r);
        }
        db
    }

    fn star_count_query() -> ConjunctiveQuery {
        CqBuilder::new()
            .atom("hub", "hub", &[("l", "A"), ("r", "B"), ("id", "__rid_h")])
            .atom("ra", "ra", &[("l", "A"), ("r", "C"), ("id", "__rid_a")])
            .atom("rb", "rb", &[("l", "B"), ("r", "D"), ("id", "__rid_b")])
            .out_var("A")
            .out_agg(AggFunc::Count, None, "n")
            .out_var("__rid_h")
            .out_var("__rid_a")
            .out_var("__rid_b")
            .group("A")
            .build()
    }

    fn sorted_rows(v: &VRelation) -> Vec<Row> {
        let mut rows = v.rows().to_vec();
        rows.sort();
        rows
    }

    #[test]
    fn qhd_factorized_count_matches_materialized() {
        let db = star_db(40, 6);
        let q = star_count_query();
        let plan = q_hypertree_decomp(&q, &QhdOptions::default(), &StructuralCost).unwrap();
        let mut trace = FactorizedTrace::default();
        let mut b1 = Budget::unlimited();
        let opts = ExecOptions::default();
        let fact = evaluate_qhd_query_traced(&db, &q, &plan, &mut b1, &opts, &mut trace).unwrap();
        assert!(trace.factorized, "fell back: {:?}", trace.fallback);
        let mut b2 = Budget::unlimited();
        let mat = crate::qeval::evaluate_qhd_with(&db, &q, &plan, &mut b2, &opts)
            .and_then(|answer| htqo_engine::aggregate::finalize(&answer, &q, &mut b2))
            .unwrap();
        assert_eq!(sorted_rows(&fact), sorted_rows(&mat));
        assert_eq!(fact.cols(), mat.cols());
        // The factorized path retains only the P′ relations and the
        // small aggregate output; the materialized pipeline holds the
        // full join on top of the same P′ phase.
        assert!(
            b1.mem_used() <= b2.mem_used(),
            "{} > {}",
            b1.mem_used(),
            b2.mem_used()
        );
    }

    #[test]
    fn qhd_enumerator_matches_materialized_answer() {
        let db = star_db(40, 6);
        let q = star_count_query();
        let plan = q_hypertree_decomp(&q, &QhdOptions::default(), &StructuralCost).unwrap();
        let mut b1 = Budget::unlimited();
        let it = qhd_answer_rows(&db, &q, &plan, &mut b1, &ExecOptions::default()).unwrap();
        assert!(it.is_factorized());
        let cols = it.cols().to_vec();
        let mut rows: Vec<Row> = it.collect::<Result<_, _>>().unwrap();
        rows.sort();
        let mut b2 = Budget::unlimited();
        let ans = crate::qeval::evaluate_qhd(&db, &q, &plan, &mut b2).unwrap();
        assert_eq!(cols, ans.cols());
        assert_eq!(rows, sorted_rows(&ans));
    }

    #[test]
    fn yannakakis_factorized_count_matches_materialized() {
        let db = star_db(35, 5);
        let q = star_count_query();
        let mut trace = FactorizedTrace::default();
        let mut b1 = Budget::unlimited();
        let fact =
            evaluate_yannakakis_query_traced(&db, &q, &mut b1, &ExecOptions::default(), &mut trace)
                .unwrap();
        let mut b2 = Budget::unlimited();
        let ans = crate::yannakakis::evaluate_yannakakis(&db, &q, &mut b2).unwrap();
        let mat = htqo_engine::aggregate::finalize(&ans, &q, &mut b2).unwrap();
        assert_eq!(sorted_rows(&fact), sorted_rows(&mat));
        if trace.factorized {
            assert_eq!(trace.answer_rows, Some(ans.len() as u64));
        }
    }

    /// An ordered, limited aggregate is answered from the cover: the same
    /// rows, in the same order, as the materialized pipeline.
    #[test]
    fn ordered_aggregate_is_factorized() {
        let db = star_db(20, 4);
        let mut q = star_count_query();
        q.order_by.push(("n".into(), htqo_cq::SortDir::Asc));
        q.limit = Some(3);
        let plan = q_hypertree_decomp(&q, &QhdOptions::default(), &StructuralCost).unwrap();
        let mut trace = FactorizedTrace::default();
        let mut b = Budget::unlimited();
        let opts = ExecOptions::default();
        let out = evaluate_qhd_query_traced(&db, &q, &plan, &mut b, &opts, &mut trace).unwrap();
        assert!(trace.factorized, "fell back: {:?}", trace.fallback);
        let mut b2 = Budget::unlimited();
        let mat = crate::qeval::evaluate_qhd_with(&db, &q, &plan, &mut b2, &opts)
            .and_then(|answer| htqo_engine::aggregate::finalize(&answer, &q, &mut b2))
            .unwrap();
        assert_eq!(out, mat);
        assert_eq!(out.len(), 3);
        let ns: Vec<_> = (out.rows().iter())
            .map(|r| r[out.col_index("n").unwrap()].clone())
            .collect();
        assert!(ns.is_sorted(), "{ns:?}");
    }
}
