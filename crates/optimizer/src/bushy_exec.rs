//! Execution of bushy join trees: recursive evaluation over the engine,
//! projecting the final result onto `out(Q)` like the other pipelines.

use crate::bushy::JoinTree;
use htqo_cq::ConjunctiveQuery;
use htqo_engine::cops;
use htqo_engine::crel::CRel;
use htqo_engine::error::{Budget, EvalError};
use htqo_engine::exec::ExecOptions;
use htqo_engine::scan::scan_query_atom_c;
use htqo_engine::schema::Database;

/// Evaluates a bushy join tree bottom-up, returning the answer over
/// `out(Q)` (set semantics, matching the other evaluators), still
/// columnar. Uses the process-wide [`ExecOptions`] defaults; see
/// [`evaluate_join_tree_with`] to pass them.
pub fn evaluate_join_tree(
    db: &Database,
    q: &ConjunctiveQuery,
    tree: &JoinTree,
    budget: &mut Budget,
) -> Result<CRel, EvalError> {
    evaluate_join_tree_with(db, q, tree, budget, &ExecOptions::default())
}

/// [`evaluate_join_tree`] with explicit execution options.
pub fn evaluate_join_tree_with(
    db: &Database,
    q: &ConjunctiveQuery,
    tree: &JoinTree,
    budget: &mut Budget,
    opts: &ExecOptions,
) -> Result<CRel, EvalError> {
    budget.apply_mem_limit(opts.mem_limit);
    let joined = eval_node(db, q, tree, budget)?;
    let answer = cops::project(&joined, &q.out_vars(), true, budget)?;
    // A session's budget is a shared handle whose charges are batched and
    // may not trip inline (see `Budget::charge`); check before declaring
    // success.
    budget.check_exceeded()?;
    Ok(answer)
}

fn eval_node(
    db: &Database,
    q: &ConjunctiveQuery,
    tree: &JoinTree,
    budget: &mut Budget,
) -> Result<CRel, EvalError> {
    budget.check_time()?;
    htqo_engine::fail_point!("bushy::node");
    match tree {
        JoinTree::Leaf(a) => scan_query_atom_c(db, q, *a, budget),
        JoinTree::Join(l, r) => {
            let lv = eval_node(db, q, l, budget)?;
            let rv = eval_node(db, q, r, budget)?;
            cops::natural_join(&lv, &rv, budget)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bushy::dp_bushy;
    use htqo_stats::analyze;
    use htqo_workloads::{chain_query, workload_db, WorkloadSpec};

    #[test]
    fn bushy_trees_agree_with_left_deep_on_chains() {
        for n in [3usize, 5] {
            let db = workload_db(&WorkloadSpec::new(n, 50, 7, n as u64));
            let q = chain_query(n);
            let stats = analyze(&db);
            let (_, tree) = dp_bushy(&q, &stats).expect("small query");
            let mut b1 = Budget::unlimited();
            let bushy = evaluate_join_tree(&db, &q, &tree, &mut b1)
                .unwrap()
                .to_vrel();
            let mut b2 = Budget::unlimited();
            let naive = htqo_eval::evaluate_naive(&db, &q, &mut b2).unwrap();
            assert!(bushy.set_eq(&naive), "n={n}");
        }
    }

    #[test]
    fn budget_applies_to_tree_execution() {
        let db = workload_db(&WorkloadSpec::new(4, 200, 5, 1));
        let q = chain_query(4);
        let stats = analyze(&db);
        let (_, tree) = dp_bushy(&q, &stats).unwrap();
        let mut budget = Budget::unlimited().with_max_tuples(20);
        assert!(evaluate_join_tree(&db, &q, &tree, &mut budget).is_err());
    }
}
