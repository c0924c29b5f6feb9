//! The factorized aggregate front of the q-hypertree evaluator: wire the
//! engine's cover ([`htqo_engine::factorized`]) into the `P′` phase.
//!
//! The front runs `P′` once, links the per-vertex relations along the
//! decomposition tree — borrowing them: their columns are shared, not
//! copied — and finalizes aggregates from the root's answer counts in the
//! engine's one grouping kernel ([`evaluate_qhd_query_traced`]), never
//! materializing the join.
//!
//! Eligibility is checked statically where possible (an aggregate query,
//! stitchability, root coverage of the aggregate inputs — see DESIGN.md
//! §3.11). No output shape is refused: ORDER BY, LIMIT, AVG and float
//! SUM come out of the cover with the materialized pipeline's bits, in
//! its order. Data-dependent conditions (the answer-determines-link
//! check, answer counts past `u64`, weights a float sum cannot apply
//! exactly, denied reservations) surface at runtime as
//! [`CoverError::Ineligible`]; the front then runs `P″` on the same `P′`
//! relations, which can spill, so no query evaluates them twice. The
//! [`FactorizedTrace`] records which path produced the result, for
//! optimizer telemetry.

use std::collections::HashSet;

use htqo_core::QhdPlan;
use htqo_cq::{ConjunctiveQuery, OutputItem};
use htqo_engine::error::{Budget, EvalError};
use htqo_engine::exec::ExecOptions;
use htqo_engine::factorized::{aggregate_cover, CoverError, CoverInput};
use htqo_engine::schema::Database;
use htqo_engine::vrel::VRelation;

use crate::qeval::{join_up, vertex_relations, Vertices};

/// Which path produced a query result, for `QueryOutcome` telemetry.
#[derive(Debug, Clone, Default)]
pub struct FactorizedTrace {
    /// The factorized path produced the result.
    pub factorized: bool,
    /// Why the factorized path was skipped or abandoned (static
    /// ineligibility or a runtime degrade), if it was.
    pub fallback: Option<String>,
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

/// The cover's input over the plan's `P′` vertex relations: children
/// linked to parents, scopes = χ, the relations borrowed.
fn qhd_cover_input(plan: &QhdPlan, (chi_names, rels): &Vertices) -> CoverInput {
    let tree = &plan.tree;
    let mut parents: Vec<Option<usize>> = vec![None; tree.len()];
    for p in tree.preorder() {
        for &c in &tree.node(p).children {
            parents[c.index()] = Some(p.index());
        }
    }
    CoverInput {
        rels: rels.clone(),
        parents,
        scopes: chi_names.clone(),
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
            .and_then(|()| aggregate_cover(qhd_cover_input(plan, &vertices), q, budget));
        match attempt {
            Ok(out) => {
                trace.factorized = true;
                return Ok(out);
            }
            Err(CoverError::Ineligible(reason)) => trace.fallback = Some(reason),
            Err(CoverError::Eval(e)) => return Err(e),
        }
    }
    let answer = join_up(q, plan, vertices, budget)?;
    htqo_engine::aggregate::finalize_c(&answer, q, budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use htqo_core::{q_hypertree_decomp, QhdOptions, StructuralCost};
    use htqo_cq::{AggFunc, CqBuilder};
    use htqo_engine::relation::Relation;
    use htqo_engine::schema::{ColumnType, Schema};
    use htqo_engine::value::{Row, Value};

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
