//! Quantitative vertex cost for `cost-k-decomp` — the hybrid half of the
//! paper's optimizer, plugging database statistics into the structural
//! search (weighted hypertree decompositions, PODS'04).

use crate::estimate::{join_profiles, Profile, QueryProfiles, VarId};
use crate::stats::DbStats;
use htqo_core::DecompCost;
use htqo_cq::{AtomId, ConjunctiveQuery};
use htqo_hypergraph::fxhash::FxHashMap;
use htqo_hypergraph::{EdgeSet, Hypergraph, VarSet};
use std::cell::RefCell;
use std::sync::OnceLock;

/// Statistics-driven [`DecompCost`]: a vertex costs the estimated number of
/// tuples materialized while joining its atoms (greedy smallest-first
/// order, the same strategy the evaluator uses), which makes the DP choose
/// the decomposition with the cheapest overall `P′` phase.
///
/// The model is compiled per query ([`QueryProfiles`]) and remembers every
/// join-atom set it has priced, so the search's thousands of separator
/// pricings cost one hash probe each after the first.
pub struct StatsDecompCost<'a> {
    query: &'a ConjunctiveQuery,
    profiles: QueryProfiles<'a>,
    /// When `true` (the default — Algorithm q-HypertreeDecomp always runs
    /// `Optimize` after the search), λ atoms that are *not* enforced at the
    /// vertex are treated as nearly free: Procedure Optimize prunes them
    /// whenever a child bounds the same variables, so the evaluated plan
    /// does not pay their joins. Set to `false` when the Optimize pass is
    /// disabled (the Figure 10 ablation), making the model price the full
    /// pre-pruning λ joins.
    assume_optimize: bool,
    /// Secondary indexes available to the evaluator, as lowercase
    /// `(relation, column)` pairs. Empty (the default) keeps the legacy
    /// pricing bit-identical; non-empty switches [`Self::vertex_tuples`]
    /// to index-aware pricing where a seekable join skips its base-table
    /// scan (mirroring the index-nested-loop kernel, which never charges
    /// the probed atom's scan).
    indexed: Vec<(String, String)>,
    /// Per atom, the variables bound by one of its indexed columns,
    /// resolved on first use.
    seek_vars: Vec<OnceLock<Vec<VarId>>>,
    /// [`Self::vertex_tuples`] by join-atom set, for the model's lifetime.
    priced: RefCell<FxHashMap<EdgeSet, f64>>,
}

impl<'a> StatsDecompCost<'a> {
    /// Creates the cost model for `query` with the given statistics
    /// (assumes Procedure Optimize will run).
    pub fn new(stats: &'a DbStats, query: &'a ConjunctiveQuery) -> Self {
        StatsDecompCost {
            query,
            profiles: QueryProfiles::new(stats, query),
            assume_optimize: true,
            indexed: Vec::new(),
            seek_vars: query.atoms.iter().map(|_| OnceLock::new()).collect(),
            priced: RefCell::default(),
        }
    }

    /// Selects whether the model should assume Optimize will prune
    /// bounding atoms.
    pub fn with_assume_optimize(mut self, assume: bool) -> Self {
        self.assume_optimize = assume;
        self
    }

    /// Declares the catalog's secondary indexes as `(relation, column)`
    /// pairs (case-insensitive). With any index declared, vertex pricing
    /// accounts for base-table scans and lets seekable joins skip them;
    /// with none (the default), pricing is exactly the legacy formula.
    pub fn with_indexes(mut self, indexed: &[(String, String)]) -> Self {
        self.indexed = indexed
            .iter()
            .map(|(t, c)| (t.to_lowercase(), c.to_lowercase()))
            .collect();
        // Prices and seek masks depend on the catalog.
        self.seek_vars.iter_mut().for_each(|s| *s = OnceLock::new());
        self.priced = RefCell::default();
        self
    }

    /// True when joining atom `a` into an accumulator covering
    /// `acc`'s variables can run as an index seek: some indexed column
    /// of `a`'s relation binds a variable the accumulator already has.
    fn seekable(&self, a: AtomId, acc: &Profile) -> bool {
        let seek_vars = self.seek_vars[a.index()].get_or_init(|| {
            let atom = self.query.atom(a);
            let rel = atom.relation.to_lowercase();
            atom.args
                .iter()
                .filter(|(col, _)| {
                    let col = col.to_lowercase();
                    self.indexed.iter().any(|(t, c)| *t == rel && *c == col)
                })
                .map(|(_, var)| {
                    self.profiles
                        .var_id(var)
                        .expect("atom variables are interned")
                })
                .collect()
        });
        seek_vars.iter().any(|&v| acc.has_var(v))
    }

    /// Estimated number of tuples materialized at one decomposition
    /// vertex joining `atoms` (edge `i` is atom `i`). Each distinct set
    /// is derived once; repeats are a hash probe.
    pub fn vertex_tuples(&self, atoms: &EdgeSet) -> f64 {
        if let Some(&tuples) = self.priced.borrow().get(atoms) {
            return tuples;
        }
        let tuples = self.price(atoms);
        self.priced.borrow_mut().insert(atoms.clone(), tuples);
        tuples
    }

    /// Number of distinct join-atom sets priced so far.
    pub fn priced_sets(&self) -> usize {
        self.priced.borrow().len()
    }

    fn price(&self, atoms: &EdgeSet) -> f64 {
        let mut profiles: Vec<(AtomId, &Profile)> = atoms
            .iter()
            .map(|e| (AtomId(e.0), self.profiles.atom(AtomId(e.0))))
            .collect();
        profiles.sort_by(|a, b| a.1.card.total_cmp(&b.1.card));
        let Some(&(_, first)) = profiles.first() else {
            return 0.0;
        };
        let mut acc = first.clone();
        let mut cost = acc.card;
        for &(a, p) in &profiles[1..] {
            if !self.indexed.is_empty() {
                // Index-aware pricing: a hash join first scans (and
                // charges) the probed atom's base table; an index seek
                // reads only the matching rows, so a seekable join with
                // a decisively smaller accumulator (the evaluator's own
                // profitability rule) skips the scan term.
                let seek = self.seekable(a, &acc) && acc.card * 4.0 <= p.card;
                if !seek {
                    cost += p.card;
                }
            }
            acc = join_profiles(&acc, p);
            cost += acc.card;
        }
        cost
    }
}

impl DecompCost for StatsDecompCost<'_> {
    /// Every vertex the search builds joins at least one atom (a
    /// normal-form vertex assigns ≥ 1 edge of its component, and λ is
    /// never empty), the smallest-first join starts its sum with that
    /// atom's cardinality and only adds non-negative terms, so no vertex
    /// costs less than the constant plus the smallest atom cardinality.
    fn min_vertex_cost(&self, _h: &Hypergraph) -> f64 {
        let min_card = self
            .query
            .atom_ids()
            .map(|a| self.profiles.atom(a).card)
            .fold(f64::INFINITY, f64::min);
        1.0 + min_card
    }

    fn vertex_cost(
        &self,
        _h: &Hypergraph,
        lambda: &EdgeSet,
        assigned: &EdgeSet,
        _chi: &VarSet,
    ) -> f64 {
        let (tuples, bounding) = if self.assume_optimize {
            // Optimize will prune bounding atoms supported by children;
            // price only the enforcing joins, plus a small per-atom term
            // so the search does not add gratuitous bounding atoms.
            let bounding = lambda.iter().filter(|&e| !assigned.contains(e)).count();
            (self.vertex_tuples(assigned), bounding)
        } else {
            (self.vertex_tuples(&lambda.union(assigned)), 0)
        };
        // A tiny per-vertex constant keeps degenerate zero-cost plans from
        // proliferating vertices.
        1.0 + tuples + 10.0 * bounding as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::analyze;
    use htqo_core::{cost_k_decomp_with_cost, SearchOptions, StructuralCost};
    use htqo_cq::CqBuilder;
    use htqo_engine::relation::Relation;
    use htqo_engine::schema::{ColumnType, Database, Schema};
    use htqo_engine::value::Value;

    fn edges(ids: &[u32]) -> EdgeSet {
        ids.iter().map(|&i| htqo_hypergraph::EdgeId(i)).collect()
    }

    /// Triangle query over one big and two small relations: the cost-based
    /// search should prefer separators built from the small relations.
    fn setup() -> (Database, htqo_cq::ConjunctiveQuery) {
        let mut db = Database::new();
        let schema = || Schema::new(&[("l", ColumnType::Int), ("r", ColumnType::Int)]);
        let mut big = Relation::new(schema());
        for i in 0..1000 {
            big.push_row(vec![Value::Int(i % 50), Value::Int(i % 37)])
                .unwrap();
        }
        let mut small1 = Relation::new(schema());
        let mut small2 = Relation::new(schema());
        for i in 0..10 {
            small1.push_row(vec![Value::Int(i), Value::Int(i)]).unwrap();
            small2.push_row(vec![Value::Int(i), Value::Int(i)]).unwrap();
        }
        db.insert_table("big", big);
        db.insert_table("s1", small1);
        db.insert_table("s2", small2);
        let q = CqBuilder::new()
            .atom("big", "big", &[("l", "X"), ("r", "Y")])
            .atom("s1", "s1", &[("l", "Y"), ("r", "Z")])
            .atom("s2", "s2", &[("l", "Z"), ("r", "X")])
            .out_var("X")
            .build();
        (db, q)
    }

    #[test]
    fn stats_cost_orders_candidates() {
        let (db, q) = setup();
        let stats = analyze(&db);
        let model = StatsDecompCost::new(&stats, &q);
        let big_only = model.vertex_tuples(&edges(&[0]));
        let small_pair = model.vertex_tuples(&edges(&[1, 2]));
        assert!(small_pair < big_only, "{small_pair} vs {big_only}");
    }

    #[test]
    fn index_catalog_prices_seeks_cheaper_and_empty_is_identical() {
        let (db, q) = setup();
        let stats = analyze(&db);
        let legacy = StatsDecompCost::new(&stats, &q);
        // An empty catalog is bit-identical to the legacy model.
        let empty = StatsDecompCost::new(&stats, &q).with_indexes(&[]);
        let atoms = edges(&[0, 1]); // small s1 joins first, then big
        assert_eq!(legacy.vertex_tuples(&atoms), empty.vertex_tuples(&atoms));

        // With "big" indexed on the shared column (s1 joins big on Y,
        // bound to big.r), the seek skips the big-table scan; indexing
        // an unrelated table does not.
        let seek =
            StatsDecompCost::new(&stats, &q).with_indexes(&[("big".to_string(), "r".to_string())]);
        let no_help =
            StatsDecompCost::new(&stats, &q).with_indexes(&[("s2".to_string(), "l".to_string())]);
        assert!(
            seek.vertex_tuples(&atoms) < no_help.vertex_tuples(&atoms),
            "{} vs {}",
            seek.vertex_tuples(&atoms),
            no_help.vertex_tuples(&atoms)
        );
    }

    #[test]
    fn hybrid_decomposition_beats_structural_on_cost() {
        let (db, q) = setup();
        let stats = analyze(&db);
        let model = StatsDecompCost::new(&stats, &q);
        let ch = q.hypergraph();
        let out = ch.out_var_set(&q);
        let opts = SearchOptions::width_with_root_cover(2, out);
        let (hybrid_cost, hybrid_tree) =
            cost_k_decomp_with_cost(&ch.hypergraph, &opts, &model).unwrap();
        // The structural search ignores sizes; re-costing its tree with the
        // stats model can only be ≥ the hybrid optimum.
        let (_, structural_tree) =
            cost_k_decomp_with_cost(&ch.hypergraph, &opts, &StructuralCost).unwrap();
        let recost = |t: &htqo_core::Hypertree| {
            t.preorder()
                .iter()
                .map(|&p| {
                    let n = t.node(p);
                    model.vertex_cost(&ch.hypergraph, &n.lambda, &n.assigned, &n.chi)
                })
                .sum::<f64>()
        };
        assert!(hybrid_cost <= recost(&structural_tree) + 1e-6);
        assert!((hybrid_cost - recost(&hybrid_tree)).abs() < 1e-6);
    }
}
