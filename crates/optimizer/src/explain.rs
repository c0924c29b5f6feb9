//! EXPLAIN-style plan rendering: step-by-step cardinality-annotated
//! output for both the quantitative (left-deep) and structural (q-HD)
//! plans, in the spirit of `EXPLAIN` in the DBMSs the paper integrates
//! with.

use htqo_core::{QhdPlan, SearchStats};
use htqo_cq::{AtomId, ConjunctiveQuery};
use htqo_stats::{join_profiles, DbStats, QueryProfiles, StatsDecompCost};
use std::fmt::Write as _;

/// Renders a left-deep join order with estimated cardinalities:
///
/// ```text
/// scan region                     est 5 rows
/// ⋈ nation                        est 25 rows
/// ⋈ supplier                      est 200 rows
/// ```
pub fn explain_join_order(q: &ConjunctiveQuery, stats: &DbStats, order: &[AtomId]) -> String {
    let mut out = String::new();
    let mut iter = order.iter();
    let Some(&first) = iter.next() else {
        return "empty plan\n".into();
    };
    let profiles = QueryProfiles::new(stats, q);
    let mut acc = profiles.atom(first).clone();
    let _ = writeln!(
        out,
        "scan {:<24} est {:>12.0} rows",
        q.atom(first).alias,
        acc.card
    );
    for &a in iter {
        acc = join_profiles(&acc, profiles.atom(a));
        let _ = writeln!(out, "⋈ {:<27} est {:>12.0} rows", q.atom(a).alias, acc.card);
    }
    if q.has_aggregates() {
        let _ = writeln!(
            out,
            "aggregate/group-by → {} output columns",
            q.output.len()
        );
    }
    out
}

/// Renders a q-hypertree plan: its shape, what the cost-k-decomp search
/// did to find it (or that it came out of the plan cache), and per-vertex
/// labels with estimated `P′` work:
///
/// ```text
/// q-hypertree decomposition: width 2, 2 vertices, 2 joins (Optimize removed 1 atoms)
/// search: 9 subproblems, 204 separators tried, 31 memo hits, 6 cover rejects, 180 bound cuts
/// vertex 0  χ={…} λ={lineitem, nation}  est 24000 tuples
///   vertex 1  χ={…} λ={customer, orders}  est 30000 tuples
/// ```
pub fn explain_qhd(plan: &QhdPlan, q: &ConjunctiveQuery, stats: Option<&DbStats>) -> String {
    let h = &plan.cq_hypergraph.hypergraph;
    let tree = &plan.tree;
    let model = stats.map(|s| StatsDecompCost::new(s, q));

    let mut out = String::new();
    let _ = writeln!(
        out,
        "q-hypertree decomposition: width {}, {} vertices, {} joins (Optimize removed {} atoms)",
        tree.width(),
        tree.len(),
        tree.join_work(),
        plan.optimize_stats.removed_atoms
    );
    // A plan remapped from a cached shape ran no search: its counters
    // are all zero.
    let search = &plan.search_stats;
    if *search == SearchStats::default() {
        let _ = writeln!(out, "search: served from plan cache");
    } else {
        let _ = writeln!(
            out,
            "search: {} subproblems, {} separators tried, {} memo hits, {} cover rejects, \
             {} bound cuts",
            search.subproblems,
            search.separators_tried,
            search.memo_hits,
            search.cover_rejects,
            search.bound_cuts
        );
    }
    fn rec(
        out: &mut String,
        plan: &QhdPlan,
        q: &ConjunctiveQuery,
        model: &Option<StatsDecompCost<'_>>,
        node: htqo_core::NodeId,
        depth: usize,
    ) {
        let h = &plan.cq_hypergraph.hypergraph;
        let n = plan.tree.node(node);
        let joined = n.lambda.union(&n.assigned);
        let atoms: Vec<String> = joined
            .iter()
            .map(|e| q.atom(AtomId(e.0)).alias.clone())
            .collect();
        let est = model
            .as_ref()
            .map(|m| format!("  est {:.0} tuples", m.vertex_tuples(&joined)))
            .unwrap_or_default();
        let support = if n.support_children.is_empty() {
            String::new()
        } else {
            format!("  [support-first: {}]", n.support_children.len())
        };
        let _ = writeln!(
            out,
            "{}vertex {}  χ={} atoms={{{}}}{est}{support}",
            "  ".repeat(depth),
            node.0,
            h.display_vars(&n.chi),
            atoms.join(", "),
        );
        for &c in &n.children {
            rec(out, plan, q, model, c, depth + 1);
        }
    }
    rec(&mut out, plan, q, &model, tree.root(), 1);
    let _ = h;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::dp_join_order;
    use crate::hybrid::HybridOptimizer;
    use htqo_core::QhdOptions;
    use htqo_cq::{isolate, parse_select, IsolatorOptions};
    use htqo_stats::analyze;
    use htqo_tpch::{generate, q5, DbgenOptions};

    #[test]
    fn explain_both_plan_kinds() {
        let db = generate(&DbgenOptions {
            scale: 0.001,
            seed: 2,
        });
        let stats = analyze(&db);
        let stmt = parse_select(&q5("ASIA", 1994)).unwrap();
        let q = isolate(&stmt, &db, IsolatorOptions::default()).unwrap();

        let order = dp_join_order(&q, &stats);
        let text = explain_join_order(&q, &stats, &order);
        assert!(text.contains("scan"));
        assert!(text.lines().count() >= q.atoms.len());
        assert!(text.contains("aggregate"));

        let opt = HybridOptimizer::with_stats(QhdOptions::default(), stats.clone());
        let plan = opt.plan_cq(&q).unwrap();
        let text = explain_qhd(&plan, &q, Some(&stats));
        assert!(text.contains("width"));
        assert!(text.contains("vertex 0"));
        assert!(text.contains("est"));
        // Without statistics the estimates are omitted but structure shows.
        let text2 = explain_qhd(&plan, &q, None);
        assert!(!text2.contains("est "));
    }

    #[test]
    fn explain_reports_the_search_or_the_cache() {
        let cycle = |prefix: &str| {
            let mut b = htqo_cq::CqBuilder::new();
            for i in 0..6 {
                let (l, r) = (format!("{prefix}{i}"), format!("{prefix}{}", (i + 1) % 6));
                b = b.atom(&format!("p{i}"), &format!("p{i}"), &[("l", &l), ("r", &r)]);
            }
            b.out_var(&format!("{prefix}0")).build()
        };
        let opt = HybridOptimizer::structural(QhdOptions::default());
        let q = cycle("X");
        let cold = opt.plan_cq_cached(&q).unwrap();
        let s = cold.search_stats;
        assert!(s.separators_tried > 0 && s.bound_cuts > 0, "{s:?}");
        let text = explain_qhd(&cold, &q, None);
        let line = format!(
            "search: {} subproblems, {} separators tried, {} memo hits, {} cover rejects, \
             {} bound cuts\n",
            s.subproblems, s.separators_tried, s.memo_hits, s.cover_rejects, s.bound_cuts
        );
        assert!(text.contains(&line), "{text}");
        // The same shape under other names is transported from the cached
        // tree: no search ran, and the explanation says so.
        let q2 = cycle("Z");
        let warm = opt.plan_cq_cached(&q2).unwrap();
        let text = explain_qhd(&warm, &q2, None);
        assert!(text.contains("search: served from plan cache\n"), "{text}");
    }

    #[test]
    fn empty_order_is_handled() {
        let q = htqo_cq::CqBuilder::new().build();
        let stats = htqo_stats::DbStats::default();
        assert_eq!(explain_join_order(&q, &stats, &[]), "empty plan\n");
    }
}
