//! The TPC-H queries used in the paper's evaluation (Q5 and Q8), plus Q9
//! and two acyclic extras (Q3, Q10) used by the examples and tests.
//!
//! Q8 is adapted: the official query computes a market-share ratio with a
//! `CASE` expression; we keep its 8-relation cyclic join core and
//! aggregate the volume per supplier nation instead (see DESIGN.md —
//! the structural shape, which is what the paper measures, is unchanged).

/// TPC-H Q1 ("pricing summary report"), adapted to the SQL subset
/// (grouped by `l_returnflag` only — our generator has no
/// `l_linestatus`). A single-atom query: the decomposition degenerates to
/// one vertex, exercising the pipeline's no-join path.
pub fn q1(delta_days: i32) -> String {
    let cutoff = htqo_cq::date::format_date(
        htqo_cq::date::parse_date("1998-12-01").expect("valid") - delta_days,
    );
    format!(
        "SELECT l_returnflag,
       sum(l_quantity) AS sum_qty,
       sum(l_extendedprice) AS sum_base_price,
       sum(l_extendedprice * (1 - l_discount)) AS sum_disc_price,
       avg(l_quantity) AS avg_qty,
       avg(l_extendedprice) AS avg_price,
       avg(l_discount) AS avg_disc,
       count(*) AS count_order
FROM lineitem
WHERE l_shipdate <= date '{cutoff}'
GROUP BY l_returnflag
ORDER BY l_returnflag"
    )
}

/// TPC-H Q5 ("local supplier volume") with the region/date parameters
/// substituted. This is the paper's running example (Figure 1).
pub fn q5(region: &str, year: i32) -> String {
    format!(
        "SELECT n_name, sum(l_extendedprice * (1 - l_discount)) AS revenue
FROM customer, orders, lineitem, supplier, nation, region
WHERE c_custkey = o_custkey
  AND l_orderkey = o_orderkey
  AND l_suppkey = s_suppkey
  AND c_nationkey = s_nationkey
  AND s_nationkey = n_nationkey
  AND n_regionkey = r_regionkey
  AND r_name = '{region}'
  AND o_orderdate >= date '{year}-01-01'
  AND o_orderdate < date '{year}-01-01' + interval '1' year
GROUP BY n_name
ORDER BY revenue DESC"
    )
}

/// TPC-H Q8 ("national market share"), adapted to the SQL subset: the
/// 8-relation cyclic join of the official query, aggregating volume per
/// supplier nation (the official CASE-based ratio needs per-group
/// post-processing our subset does not model).
pub fn q8(region: &str, part_type: &str) -> String {
    format!(
        "SELECT n2.n_name AS nation, sum(l_extendedprice * (1 - l_discount)) AS volume
FROM part, supplier, lineitem, orders, customer, nation n1, nation n2, region
WHERE p_partkey = l_partkey
  AND s_suppkey = l_suppkey
  AND l_orderkey = o_orderkey
  AND o_custkey = c_custkey
  AND c_nationkey = n1.n_nationkey
  AND n1.n_regionkey = r_regionkey
  AND s_nationkey = n2.n_nationkey
  AND r_name = '{region}'
  AND o_orderdate >= date '1995-01-01'
  AND o_orderdate <= date '1996-12-31'
  AND p_type = '{part_type}'
GROUP BY n2.n_name
ORDER BY volume DESC"
    )
}

/// TPC-H Q9 ("product type profit measure"), adapted to the SQL subset:
/// the `p_name LIKE '%…%'` filter becomes a brand equality and the
/// per-year grouping becomes per-nation. Structurally interesting: the
/// join core is α-acyclic (lineitem covers partsupp's keys) but the
/// profit aggregate spans three atoms, so the q-hypertree width is 3 —
/// the largest output-cover effect among our TPC-H queries.
pub fn q9(brand: &str) -> String {
    format!(
        "SELECT n_name, sum(l_extendedprice * (1 - l_discount) - ps_supplycost * l_quantity) AS profit
FROM part, supplier, lineitem, partsupp, orders, nation
WHERE ps_partkey = l_partkey
  AND ps_suppkey = l_suppkey
  AND s_suppkey = l_suppkey
  AND p_partkey = l_partkey
  AND o_orderkey = l_orderkey
  AND s_nationkey = n_nationkey
  AND p_brand = '{brand}'
GROUP BY n_name
ORDER BY profit DESC"
    )
}

/// TPC-H Q3 ("shipping priority") — acyclic, used by the examples.
pub fn q3(segment: &str, date: &str) -> String {
    format!(
        "SELECT l_orderkey, sum(l_extendedprice * (1 - l_discount)) AS revenue
FROM customer, orders, lineitem
WHERE c_mktsegment = '{segment}'
  AND c_custkey = o_custkey
  AND l_orderkey = o_orderkey
  AND o_orderdate < date '{date}'
  AND l_shipdate > date '{date}'
GROUP BY l_orderkey
ORDER BY revenue DESC"
    )
}

/// TPC-H Q10 ("returned item reporting"), simplified to the SQL subset —
/// acyclic, used by the examples.
pub fn q10(date: &str) -> String {
    format!(
        "SELECT c_name, sum(l_extendedprice * (1 - l_discount)) AS revenue
FROM customer, orders, lineitem, nation
WHERE c_custkey = o_custkey
  AND l_orderkey = o_orderkey
  AND o_orderdate >= date '{date}'
  AND o_orderdate < date '{date}' + interval '3' month
  AND l_returnflag = 'R'
  AND c_nationkey = n_nationkey
GROUP BY c_name
ORDER BY revenue DESC"
    )
}

#[cfg(test)]
mod tests {
    use crate::dbgen::{generate, DbgenOptions};
    use htqo_core::hypertree_width;
    use htqo_cq::{isolate, parse_select, IsolatorOptions};

    fn isolate_on_tpch(sql: &str) -> htqo_cq::ConjunctiveQuery {
        let db = generate(&DbgenOptions {
            scale: 0.0005,
            seed: 5,
        });
        let stmt = parse_select(sql).expect("parses");
        isolate(&stmt, &db, IsolatorOptions::default()).expect("isolates")
    }

    #[test]
    fn q1_single_atom_pipeline() {
        let q = isolate_on_tpch(&super::q1(90));
        assert_eq!(q.atoms.len(), 1);
        assert_eq!(hypertree_width(&q.hypergraph().hypergraph), 1);
        let plan = htqo_core::q_hypertree_decomp(
            &q,
            &htqo_core::QhdOptions::default(),
            &htqo_core::StructuralCost,
        )
        .unwrap();
        assert_eq!(plan.tree.len(), 1);
    }

    #[test]
    fn q5_is_cyclic_width_2() {
        let q = isolate_on_tpch(&super::q5("ASIA", 1994));
        let ch = q.hypergraph();
        assert!(!htqo_hypergraph::acyclic::is_acyclic(&ch.hypergraph));
        assert_eq!(hypertree_width(&ch.hypergraph), 2);
        assert_eq!(q.atoms.len(), 6);
    }

    #[test]
    fn q8_needs_qhd_width_2() {
        // Q8's join core is tree-shaped (hypertree width 1), but its output
        // variables span lineitem, orders and the second nation copy, so
        // Condition 2 of Definition 2 forces q-hypertree width 2 — the
        // width the paper reports for Q8.
        let q = isolate_on_tpch(&super::q8("AMERICA", "ECONOMY ANODIZED STEEL"));
        let ch = q.hypergraph();
        assert!(htqo_hypergraph::acyclic::is_acyclic(&ch.hypergraph));
        assert_eq!(hypertree_width(&ch.hypergraph), 1);
        assert_eq!(q.atoms.len(), 8);
        let plan = htqo_core::q_hypertree_decomp(
            &q,
            &htqo_core::QhdOptions::default(),
            &htqo_core::StructuralCost,
        )
        .unwrap();
        assert_eq!(plan.tree.width(), 2);
    }

    #[test]
    fn q9_aggregate_forces_qhd_width_3() {
        // Q9's hypergraph is α-acyclic: lineitem covers partsupp's join
        // variables, so partsupp is a GYO ear (hw = 1). But the profit
        // aggregate spans lineitem (price/discount/quantity), partsupp
        // (supplycost) and nation (name), so Condition 2 of Definition 2
        // needs a root covering atoms from all three: q-hypertree width 3.
        let q = isolate_on_tpch(&super::q9("Brand#11"));
        let ch = q.hypergraph();
        assert!(htqo_hypergraph::acyclic::is_acyclic(&ch.hypergraph));
        assert_eq!(hypertree_width(&ch.hypergraph), 1);
        assert_eq!(q.atoms.len(), 6);
        assert!(htqo_core::q_hypertree_decomp(
            &q,
            &htqo_core::QhdOptions {
                max_width: 2,
                run_optimize: true,
            },
            &htqo_core::StructuralCost,
        )
        .is_err());
        let plan = htqo_core::q_hypertree_decomp(
            &q,
            &htqo_core::QhdOptions::default(),
            &htqo_core::StructuralCost,
        )
        .unwrap();
        assert_eq!(plan.tree.width(), 3);
    }

    #[test]
    fn q3_and_q10_are_acyclic() {
        for sql in [
            super::q3("BUILDING", "1995-03-15"),
            super::q10("1993-10-01"),
        ] {
            let q = isolate_on_tpch(&sql);
            let ch = q.hypergraph();
            assert!(htqo_hypergraph::acyclic::is_acyclic(&ch.hypergraph));
        }
    }
}
