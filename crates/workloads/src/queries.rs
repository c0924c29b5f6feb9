//! The paper's synthetic query families (Section 6).

use htqo_cq::{ConjunctiveQuery, CqBuilder};

/// An acyclic *line* query over `n` binary atoms:
/// `q(X0) ← p0(X0,X1) ∧ p1(X1,X2) ∧ … ∧ p{n-1}(X{n-1},Xn)`.
/// Consecutive atoms share exactly one variable; non-consecutive atoms
/// share none — exactly the paper's "Acyclic Queries".
pub fn acyclic_query(n: usize) -> ConjunctiveQuery {
    assert!(n >= 1, "need at least one atom");
    let mut b = CqBuilder::new();
    for i in 0..n {
        let l = format!("X{i}");
        let r = format!("X{}", i + 1);
        b = b.atom(&format!("p{i}"), &format!("p{i}"), &[("l", &l), ("r", &r)]);
    }
    b.out_var("X0").build()
}

/// A cyclic *chain* query: the line with its first and last atoms sharing
/// a variable (`x₁ ∩ xₙ ≠ ∅`):
/// `q(X0) ← p0(X0,X1) ∧ … ∧ p{n-1}(X{n-1},X0)`.
pub fn chain_query(n: usize) -> ConjunctiveQuery {
    assert!(n >= 2, "a chain needs at least two atoms");
    let mut b = CqBuilder::new();
    for i in 0..n {
        let l = format!("X{i}");
        let r = format!("X{}", (i + 1) % n);
        b = b.atom(&format!("p{i}"), &format!("p{i}"), &[("l", &l), ("r", &r)]);
    }
    b.out_var("X0").build()
}

/// A *star* query: a central atom `p0(X1, …)` sharing one variable with
/// each satellite `p_i(X_i, Y_i)`. Acyclic for any `n`; used by the
/// width-ablation benches.
///
/// The hub is (n)-ary, so tree-decomposition-based methods pay width
/// `n - 1` where hypertree width stays 1.
pub fn star_query(satellites: usize) -> ConjunctiveQuery {
    assert!(satellites >= 1, "need at least one satellite");
    let mut b = CqBuilder::new();
    let hub_args: Vec<(String, String)> = (0..satellites)
        .map(|i| (format!("c{i}"), format!("X{i}")))
        .collect();
    let hub_refs: Vec<(&str, &str)> = hub_args
        .iter()
        .map(|(c, v)| (c.as_str(), v.as_str()))
        .collect();
    b = b.atom("hub", "hub", &hub_refs);
    for i in 0..satellites {
        let x = format!("X{i}");
        let y = format!("Y{i}");
        b = b.atom(&format!("p{i}"), &format!("p{i}"), &[("l", &x), ("r", &y)]);
    }
    b.out_var("X0").build()
}

/// A *clique* query: one binary atom per pair of `n` variables. Its
/// hypertree width grows as ⌈n/2⌉, so it exercises the width-bound
/// Failure path of Algorithm q-HypertreeDecomp.
pub fn clique_query(n: usize) -> ConjunctiveQuery {
    assert!(n >= 2, "a clique needs at least two variables");
    let mut b = CqBuilder::new();
    for i in 0..n {
        for j in (i + 1)..n {
            let l = format!("X{i}");
            let r = format!("X{j}");
            b = b.atom(
                &format!("e{i}_{j}"),
                &format!("e{i}_{j}"),
                &[("l", &l), ("r", &r)],
            );
        }
    }
    b.out_var("X0").build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use htqo_core::hypertree_width;
    use htqo_hypergraph::acyclic::is_acyclic;

    #[test]
    fn lines_are_acyclic_chains_are_not() {
        for n in 2..=10 {
            let line = acyclic_query(n).hypergraph().hypergraph;
            assert!(is_acyclic(&line), "line n={n}");
            assert_eq!(hypertree_width(&line), 1);
            if n >= 4 {
                let chain = chain_query(n).hypergraph().hypergraph;
                assert!(!is_acyclic(&chain), "chain n={n}");
                assert_eq!(hypertree_width(&chain), 2);
            }
        }
    }

    #[test]
    fn consecutive_atoms_share_one_variable() {
        let q = acyclic_query(5);
        for i in 0..4 {
            let a = &q.atoms[i];
            let b = &q.atoms[i + 1];
            let shared: Vec<&str> = a
                .vars()
                .into_iter()
                .filter(|v| b.vars().contains(v))
                .collect();
            assert_eq!(shared.len(), 1);
        }
        // Non-consecutive atoms are disjoint.
        let a = &q.atoms[0];
        let c = &q.atoms[2];
        assert!(a.vars().iter().all(|v| !c.vars().contains(v)));
    }

    #[test]
    fn chain_closes_the_loop() {
        let q = chain_query(5);
        let first = &q.atoms[0];
        let last = &q.atoms[4];
        assert!(first.vars().iter().any(|v| last.vars().contains(v)));
    }

    #[test]
    fn output_is_first_variable() {
        assert_eq!(acyclic_query(3).out_vars(), vec!["X0".to_string()]);
        assert_eq!(chain_query(3).out_vars(), vec!["X0".to_string()]);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn chain_needs_two_atoms() {
        chain_query(1);
    }

    #[test]
    fn stars_are_acyclic_width_1() {
        for n in [1usize, 3, 5] {
            let q = star_query(n);
            assert_eq!(q.atoms.len(), n + 1);
            let h = q.hypergraph().hypergraph;
            assert!(is_acyclic(&h), "star n={n}");
            assert_eq!(hypertree_width(&h), 1);
        }
    }

    #[test]
    fn clique_width_grows() {
        // hw(K_n) = ⌈n/2⌉ for cliques of binary edges (n ≥ 3).
        assert_eq!(hypertree_width(&clique_query(3).hypergraph().hypergraph), 2);
        assert_eq!(hypertree_width(&clique_query(4).hypergraph().hypergraph), 2);
        assert_eq!(hypertree_width(&clique_query(5).hypergraph().hypergraph), 3);
        let q6 = clique_query(6);
        assert_eq!(q6.atoms.len(), 15);
        assert_eq!(hypertree_width(&q6.hypergraph().hypergraph), 3);
    }

    #[test]
    fn clique_triggers_qhd_failure_at_low_k() {
        let q = clique_query(5);
        let fail = htqo_core::q_hypertree_decomp(
            &q,
            &htqo_core::QhdOptions {
                max_width: 2,
                run_optimize: true,
            },
            &htqo_core::StructuralCost,
        );
        assert!(fail.is_err());
        assert!(htqo_core::q_hypertree_decomp(
            &q,
            &htqo_core::QhdOptions {
                max_width: 3,
                run_optimize: true,
            },
            &htqo_core::StructuralCost,
        )
        .is_ok());
    }
}
