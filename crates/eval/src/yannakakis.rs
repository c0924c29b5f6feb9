//! Yannakakis's algorithm for acyclic conjunctive queries (Section 3.2 of
//! the paper): (i) bottom-up semijoin reduction, (ii) top-down semijoin
//! reduction, (iii) bottom-up joins projecting onto the current vertex's
//! variables plus the output variables contributed by its subtree.
//!
//! Runs in time polynomial in the combined size of input and output.

use htqo_cq::ConjunctiveQuery;
use htqo_engine::cops;
use htqo_engine::crel::{CRel, Name};
use htqo_engine::error::{Budget, EvalError};
use htqo_engine::exec::ExecOptions;
use htqo_engine::scan::scan_query_atom_c;
use htqo_engine::schema::Database;
use htqo_engine::vrel::VRelation;
use htqo_hypergraph::acyclic::gyo;
use htqo_hypergraph::{EdgeId, JoinForest};

/// Evaluates an **acyclic** conjunctive query with the three-pass
/// Yannakakis algorithm, returning the answer over `out(Q)`. Uses the
/// process-wide [`ExecOptions`] defaults; see [`evaluate_yannakakis_with`]
/// to pass them.
///
/// Returns `EvalError::Internal` if the query hypergraph is cyclic.
pub fn evaluate_yannakakis(
    db: &Database,
    q: &ConjunctiveQuery,
    budget: &mut Budget,
) -> Result<VRelation, EvalError> {
    evaluate_yannakakis_with(db, q, budget, &ExecOptions::default())
}

/// [`evaluate_yannakakis`] with explicit execution options.
pub fn evaluate_yannakakis_with(
    db: &Database,
    q: &ConjunctiveQuery,
    budget: &mut Budget,
    opts: &ExecOptions,
) -> Result<VRelation, EvalError> {
    budget.apply_mem_limit(opts.mem_limit);
    Ok(yannakakis_c(db, q, budget)?.to_vrel())
}

/// Scans every atom of `q` (edge `i` ↔ atom `i`). Done once per query
/// and shared by the three-pass pipeline ([`reduce_and_join`]) and the
/// factorized cover build ([`crate::factorized`]), which borrows the
/// scans and leaves them to [`reduce_and_join`] if it is refused.
pub(crate) fn scan_atoms(
    db: &Database,
    q: &ConjunctiveQuery,
    budget: &mut Budget,
) -> Result<Vec<CRel>, EvalError> {
    q.atom_ids()
        .map(|a| scan_query_atom_c(db, q, a, budget))
        .collect()
}

/// The three-pass pipeline behind [`evaluate_yannakakis_with`], answer
/// still columnar.
pub(crate) fn yannakakis_c(
    db: &Database,
    q: &ConjunctiveQuery,
    budget: &mut Budget,
) -> Result<CRel, EvalError> {
    let forest = join_forest(q)?;
    let rels = scan_atoms(db, q, budget)?;
    reduce_and_join(q, &forest, rels, budget)
}

/// The GYO join forest of `q` (edge `i` ↔ atom `i`), or an error if `q`
/// is cyclic.
pub(crate) fn join_forest(q: &ConjunctiveQuery) -> Result<JoinForest, EvalError> {
    match gyo(&q.hypergraph().hypergraph) {
        Some(reduction) => Ok(reduction.forest),
        None => Err(EvalError::Internal(
            "Yannakakis requires an acyclic query".into(),
        )),
    }
}

/// The three passes over the atom scans of [`scan_atoms`], along
/// `forest`: the answer over `out(Q)`, columnar.
pub(crate) fn reduce_and_join(
    q: &ConjunctiveQuery,
    forest: &JoinForest,
    mut rels: Vec<CRel>,
    budget: &mut Budget,
) -> Result<CRel, EvalError> {
    let ch = q.hypergraph();

    // Bottom-up then top-down semijoin passes per tree.
    let roots = forest.roots();
    let post = postorder(forest, &roots);
    // (i) bottom-up: parent ⋉ child.
    for &n in &post {
        if let Some(p) = forest.parent(n) {
            rels[p.index()] = cops::semijoin(&rels[p.index()], &rels[n.index()], budget)?;
        }
    }
    // (ii) top-down: child ⋉ parent.
    for &n in post.iter().rev() {
        if let Some(p) = forest.parent(n) {
            rels[n.index()] = cops::semijoin(&rels[n.index()], &rels[p.index()], budget)?;
        }
    }

    // (iii) bottom-up joins, projecting onto vertex vars ∪ (out ∩ subtree).
    let out = q.out_vars();
    let mut acc: Vec<Option<CRel>> = rels.into_iter().map(Some).collect();
    for &n in &post {
        let mut t = acc[n.index()].take().expect("present");
        for c in forest.children(n) {
            let child = acc[c.index()].take().expect("children already folded");
            t = cops::natural_join(&t, &child, budget)?;
        }
        // Keep this vertex's variables plus any output variables gathered
        // from the subtree.
        let keep: Vec<Name> = t
            .cols()
            .iter()
            .filter(|v| {
                out.iter().any(|o| **o == ***v)
                    || ch
                        .hypergraph
                        .edge_vars(n)
                        .iter()
                        .any(|hv| ch.hypergraph.var_name(hv) == &***v)
            })
            .cloned()
            .collect();
        t = cops::project(&t, &keep, true, budget)?;
        acc[n.index()] = Some(t);
    }

    // Combine the (independent) trees and project onto out(Q).
    let mut answer = CRel::neutral();
    for r in roots {
        let t = acc[r.index()].take().expect("root folded");
        answer = cops::natural_join(&answer, &t, budget)?;
    }
    let answer = cops::project(&answer, &out, true, budget)?;
    // A session's budget is a shared handle whose charges are batched and
    // may not trip inline (see `Budget::charge`); check before declaring
    // success.
    budget.check_exceeded()?;
    Ok(answer)
}

/// Post-order of all trees in the forest.
fn postorder(forest: &JoinForest, roots: &[EdgeId]) -> Vec<EdgeId> {
    let mut order = Vec::with_capacity(forest.len());
    fn rec(forest: &JoinForest, n: EdgeId, out: &mut Vec<EdgeId>) {
        for c in forest.children(n) {
            rec(forest, c, out);
        }
        out.push(n);
    }
    for &r in roots {
        rec(forest, r, &mut order);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::evaluate_naive;
    use htqo_cq::CqBuilder;
    use htqo_engine::relation::Relation;
    use htqo_engine::schema::{ColumnType, Schema};
    use htqo_engine::value::Value;

    fn chain_db(n_rel: usize, tuples: i64) -> Database {
        // p1(x0,x1), p2(x1,x2), ... each with `tuples` rows over a small
        // domain so joins actually connect.
        let mut db = Database::new();
        for i in 0..n_rel {
            let mut r = Relation::new(Schema::new(&[
                ("l", ColumnType::Int),
                ("r", ColumnType::Int),
            ]));
            for t in 0..tuples {
                r.push_row(vec![Value::Int(t % 5), Value::Int((t + i as i64) % 5)])
                    .unwrap();
            }
            db.insert_table(&format!("p{i}"), r);
        }
        db
    }

    fn line_query(n: usize) -> ConjunctiveQuery {
        let mut b = CqBuilder::new();
        for i in 0..n {
            let l = format!("X{i}");
            let r = format!("X{}", i + 1);
            b = b.atom(&format!("p{i}"), &format!("p{i}"), &[("l", &l), ("r", &r)]);
        }
        b.out_var("X0").out_var(&format!("X{n}")).build()
    }

    #[test]
    fn matches_naive_on_lines() {
        for n in 1..=4 {
            let db = chain_db(n, 12);
            let q = line_query(n);
            let mut b1 = Budget::unlimited();
            let mut b2 = Budget::unlimited();
            let y = evaluate_yannakakis(&db, &q, &mut b1).unwrap();
            let naive = evaluate_naive(&db, &q, &mut b2).unwrap();
            assert!(y.set_eq(&naive), "mismatch at n={n}");
        }
    }

    #[test]
    fn semijoin_reduction_materializes_less() {
        // On a selective line query, Yannakakis should charge (weakly)
        // fewer tuples than the naive full join.
        let db = chain_db(5, 40);
        let q = line_query(5);
        let mut by = Budget::unlimited();
        let mut bn = Budget::unlimited();
        let _ = evaluate_yannakakis(&db, &q, &mut by).unwrap();
        let _ = evaluate_naive(&db, &q, &mut bn).unwrap();
        assert!(
            by.charged() <= bn.charged() * 2,
            "yannakakis should not do much more work"
        );
    }

    #[test]
    fn rejects_cyclic_queries() {
        let q = CqBuilder::new()
            .atom_vars("r", &["X", "Y"])
            .atom_vars("s", &["Y", "Z"])
            .atom_vars("t", &["Z", "X"])
            .out_var("X")
            .build();
        let mut db = Database::new();
        for n in ["r", "s", "t"] {
            db.insert_table(
                n,
                Relation::new(Schema::new(&[
                    ("X", ColumnType::Int),
                    ("Y", ColumnType::Int),
                ])),
            );
        }
        // Atom columns are named after variables in atom_vars; patch the
        // schema accordingly for s and t.
        let mut budget = Budget::unlimited();
        let err = evaluate_yannakakis(&db, &q, &mut budget).unwrap_err();
        assert!(matches!(err, EvalError::Internal(_)));
    }

    #[test]
    fn boolean_acyclic_query() {
        let db = chain_db(2, 6);
        let q = {
            let mut b = CqBuilder::new();
            b = b.atom("p0", "p0", &[("l", "X0"), ("r", "X1")]);
            b = b.atom("p1", "p1", &[("l", "X1"), ("r", "X2")]);
            b.build()
        };
        let mut budget = Budget::unlimited();
        let ans = evaluate_yannakakis(&db, &q, &mut budget).unwrap();
        assert_eq!(ans.cols().len(), 0);
        assert_eq!(ans.len(), 1);
    }

    #[test]
    fn disconnected_queries_cross_join_outputs() {
        let db = chain_db(2, 6);
        let q = CqBuilder::new()
            .atom("p0", "p0", &[("l", "A"), ("r", "B")])
            .atom("p1", "p1", &[("l", "C"), ("r", "D")])
            .out_var("A")
            .out_var("C")
            .build();
        let mut b1 = Budget::unlimited();
        let mut b2 = Budget::unlimited();
        let y = evaluate_yannakakis(&db, &q, &mut b1).unwrap();
        let n = evaluate_naive(&db, &q, &mut b2).unwrap();
        assert!(y.set_eq(&n));
    }
}
