//! Join-order evaluation: join all atoms in a caller-supplied left-deep
//! order and project onto `out(Q)`.
//!
//! This is the execution engine of the quantitative baseline optimizers
//! (which differ only in how they choose the join order), of the fallback
//! ladder's last rung, of SQL views and of `IN` subqueries. It runs on
//! the same columnar kernels ([`cops`]) as the decomposition evaluators,
//! so a figure compares plans, not executors. Crucially it performs
//! **full joins without semijoin reduction**, like the execution
//! pipelines of the systems the paper compares against; its intermediate
//! results are what blow up on cyclic/long queries.

use htqo_cq::{AtomId, ConjunctiveQuery};
use htqo_engine::cops;
use htqo_engine::crel::CRel;
use htqo_engine::error::{Budget, EvalError};
use htqo_engine::scan::scan_query_atom_c;
use htqo_engine::schema::Database;
use htqo_engine::vrel::VRelation;

/// Evaluates `q` by scanning every atom and joining left-deep in `order`
/// (defaults to body order), returning the answer over `out(Q)`: under
/// set semantics, or, for an aggregate query, every join row (SQL's bag,
/// which the aggregate reads). An `order` that is not a permutation of
/// `q`'s atoms is [`EvalError::Internal`].
pub fn evaluate_join_order(
    db: &Database,
    q: &ConjunctiveQuery,
    order: Option<&[AtomId]>,
    budget: &mut Budget,
) -> Result<CRel, EvalError> {
    let joined = join_rows(db, q, order, budget)?;
    let answer = cops::project(&joined, &q.out_vars(), !q.has_aggregates(), budget)?;
    // A session's budget is a shared handle whose charges are batched and
    // may not trip inline (see `Budget::charge`); check before declaring
    // success.
    budget.check_exceeded()?;
    Ok(answer)
}

/// Every join row of `q`'s atoms, joined left-deep in `order` (defaults
/// to body order), over all their variables: [`evaluate_join_order`]
/// before its projection onto `out(Q)`.
pub fn join_rows(
    db: &Database,
    q: &ConjunctiveQuery,
    order: Option<&[AtomId]>,
    budget: &mut Budget,
) -> Result<CRel, EvalError> {
    let default_order: Vec<AtomId> = q.atom_ids().collect();
    let order = order.unwrap_or(&default_order);
    if order.len() != q.atoms.len() {
        return Err(EvalError::Internal(format!(
            "join order covers {} of {} atoms",
            order.len(),
            q.atoms.len()
        )));
    }
    let mut seen = vec![false; q.atoms.len()];
    for a in order {
        match seen.get_mut(a.index()) {
            None => {
                return Err(EvalError::Internal(format!(
                    "atom {a:?} not in a query of {} atoms",
                    q.atoms.len()
                )))
            }
            Some(true) => {
                return Err(EvalError::Internal(format!(
                    "atom {a:?} repeated in join order"
                )))
            }
            Some(s) => *s = true,
        }
    }

    let mut acc: Option<CRel> = None;
    for &a in order {
        budget.check_time()?;
        let scanned = scan_query_atom_c(db, q, a, budget)?;
        acc = Some(match acc {
            None => scanned,
            Some(prev) => cops::natural_join(&prev, &scanned, budget)?,
        });
    }
    Ok(acc.unwrap_or_else(CRel::neutral))
}

/// Evaluates `q` in body order, answer in rows.
pub fn evaluate_naive(
    db: &Database,
    q: &ConjunctiveQuery,
    budget: &mut Budget,
) -> Result<VRelation, EvalError> {
    Ok(evaluate_join_order(db, q, None, budget)?.to_vrel())
}

#[cfg(test)]
mod tests {
    use super::*;
    use htqo_cq::CqBuilder;
    use htqo_engine::relation::Relation;
    use htqo_engine::schema::{ColumnType, Schema};
    use htqo_engine::value::Value;

    fn db() -> Database {
        let mut db = Database::new();
        let mut r = Relation::new(Schema::new(&[
            ("a", ColumnType::Int),
            ("b", ColumnType::Int),
        ]));
        r.extend_rows(vec![
            vec![Value::Int(1), Value::Int(10)],
            vec![Value::Int(2), Value::Int(20)],
        ])
        .unwrap();
        db.insert_table("r", r);
        let mut s = Relation::new(Schema::new(&[
            ("b", ColumnType::Int),
            ("c", ColumnType::Int),
        ]));
        s.extend_rows(vec![
            vec![Value::Int(10), Value::Int(100)],
            vec![Value::Int(10), Value::Int(101)],
            vec![Value::Int(99), Value::Int(999)],
        ])
        .unwrap();
        db.insert_table("s", s);
        db
    }

    fn q() -> ConjunctiveQuery {
        CqBuilder::new()
            .atom("r", "r", &[("a", "A"), ("b", "B")])
            .atom("s", "s", &[("b", "B"), ("c", "C")])
            .out_var("A")
            .out_var("C")
            .build()
    }

    #[test]
    fn joins_and_projects() {
        let mut budget = Budget::unlimited();
        let ans = evaluate_naive(&db(), &q(), &mut budget).unwrap();
        assert_eq!(ans.len(), 2);
        assert_eq!(ans.cols(), &["A".to_string(), "C".to_string()]);
    }

    #[test]
    fn order_does_not_change_answer() {
        let mut b1 = Budget::unlimited();
        let mut b2 = Budget::unlimited();
        let a1 = evaluate_join_order(&db(), &q(), Some(&[AtomId(0), AtomId(1)]), &mut b1).unwrap();
        let a2 = evaluate_join_order(&db(), &q(), Some(&[AtomId(1), AtomId(0)]), &mut b2).unwrap();
        assert!(a1.to_vrel().set_eq(&a2.to_vrel()));
    }

    #[test]
    fn invalid_orders_rejected() {
        let mut budget = Budget::unlimited();
        for order in [
            &[AtomId(0)][..],
            &[AtomId(0), AtomId(0)],
            &[AtomId(0), AtomId(7)],
        ] {
            assert!(matches!(
                evaluate_join_order(&db(), &q(), Some(order), &mut budget),
                Err(EvalError::Internal(_))
            ));
        }
    }

    #[test]
    fn boolean_query_yields_neutralish_answer() {
        let qb = CqBuilder::new().atom("r", "r", &[("a", "A")]).build();
        let mut budget = Budget::unlimited();
        let ans = evaluate_naive(&db(), &qb, &mut budget).unwrap();
        assert_eq!(ans.cols().len(), 0);
        assert_eq!(ans.len(), 1); // non-empty ⇒ "true"
    }

    #[test]
    fn budget_propagates() {
        let mut budget = Budget::unlimited().with_max_tuples(3);
        assert!(evaluate_naive(&db(), &q(), &mut budget).is_err());
    }

    /// A forked (session) handle batches its charges, so a limit it
    /// overshoots by less than one flush is not seen inline: the final
    /// check must see it before the baseline declares success.
    #[test]
    fn a_forked_handle_over_its_limit_is_not_a_success() {
        let mut unlimited = Budget::unlimited();
        evaluate_naive(&db(), &q(), &mut unlimited).unwrap();
        let needed = unlimited.charged();
        let mut pool = Budget::unlimited().with_max_tuples(needed - 1);
        let mut session = pool.fork();
        let err = evaluate_naive(&db(), &q(), &mut session).unwrap_err();
        assert!(
            matches!(err, EvalError::TupleBudgetExceeded { .. }),
            "{err}"
        );
    }
}
