//! Quantitative vertex cost for `cost-k-decomp` — the hybrid half of the
//! paper's optimizer, plugging database statistics into the structural
//! search (weighted hypertree decompositions, PODS'04).

use crate::estimate::{join_profiles_into, Profile, QueryProfiles, VarId};
use crate::stats::DbStats;
use htqo_core::DecompCost;
use htqo_cq::{AtomId, ConjunctiveQuery};
use htqo_engine::index::SEEK_MARGIN;
use htqo_hypergraph::fxhash::FxHashMap;
use htqo_hypergraph::{EdgeSet, Hypergraph, VarSet};
use std::cell::{Cell, RefCell};
use std::sync::OnceLock;

/// A query of at most this many atoms keeps its prices in a table with
/// one slot per set (4,096 slots at most); a wider one in a map.
const TABLE_BITS: usize = 12;

/// Statistics-driven [`DecompCost`]: a vertex costs the estimated number of
/// tuples materialized while joining its atoms (greedy smallest-first
/// order, the same strategy the evaluator uses), which makes the DP choose
/// the decomposition with the cheapest overall `P′` phase.
///
/// The model is compiled per query ([`QueryProfiles`]) and remembers the
/// join-atom sets it has priced, so the search's thousands of separator
/// pricings cost one lookup each after the first.
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
    /// [`Self::vertex_tuples`] by join-atom set for a query of at most
    /// [`TABLE_BITS`] atoms: one `(set word, tuples)` slot per set,
    /// indexed by the set's word. A slot not yet priced holds `(0, 0.0)`
    /// — tag 0, which only the empty set has, and the empty set's price.
    /// Empty for a wider query.
    table: Box<[Cell<(u64, f64)>]>,
    /// [`Self::vertex_tuples`] by join-atom set for a query of more than
    /// [`TABLE_BITS`] atoms.
    wide: RefCell<FxHashMap<EdgeSet, f64>>,
    /// Sets priced (table and map misses).
    priced: Cell<usize>,
    /// What [`Self::price`] works in, kept from one pricing to the next:
    /// a set's atoms in join order, and the accumulated profile before
    /// and after one more join.
    scratch: RefCell<(Vec<AtomId>, Profile, Profile)>,
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
            table: empty_table(query.atoms.len()),
            wide: RefCell::default(),
            priced: Cell::new(0),
            scratch: RefCell::default(),
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
        self.table = empty_table(self.query.atoms.len());
        self.wide = RefCell::default();
        self.priced = Cell::new(0);
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
    /// vertex joining `atoms` (edge `i` is atom `i`). A set is derived
    /// once; repeats are a table read (a map probe for a query of more
    /// than 12 atoms).
    pub fn vertex_tuples(&self, atoms: &EdgeSet) -> f64 {
        match atoms.bits().as_word() {
            Some(word) if !self.table.is_empty() => self.word_tuples(word),
            _ => self.wide_tuples(atoms),
        }
    }

    /// [`Self::vertex_tuples`] of the set whose word is `word`, for a
    /// query of at most [`TABLE_BITS`] atoms.
    fn word_tuples(&self, word: u64) -> f64 {
        let slot = &self.table[word as usize];
        let (tag, tuples) = slot.get();
        if tag == word {
            return tuples;
        }
        let tuples = self.price(bits_of(word));
        slot.set((word, tuples));
        tuples
    }

    /// [`Self::vertex_tuples`] for a query of more than [`TABLE_BITS`]
    /// atoms.
    fn wide_tuples(&self, atoms: &EdgeSet) -> f64 {
        if let Some(&tuples) = self.wide.borrow().get(atoms) {
            return tuples;
        }
        let tuples = self.price(atoms.iter().map(|e| e.index()));
        self.wide.borrow_mut().insert(atoms.clone(), tuples);
        tuples
    }

    /// Number of distinct join-atom sets priced so far.
    pub fn priced_sets(&self) -> usize {
        self.priced.get()
    }

    /// The atoms (edge indices, ascending) joined smallest first;
    /// allocates nothing once its scratch lists have grown to the widest
    /// set.
    fn price(&self, atoms: impl Iterator<Item = usize>) -> f64 {
        self.priced.set(self.priced.get() + 1);
        let mut scratch = self.scratch.borrow_mut();
        let (order, acc, next) = &mut *scratch;
        order.clear();
        order.extend(atoms.map(|e| AtomId(e as u32)));
        let card = |a: AtomId| self.profiles.atom(a).card;
        order.sort_by(|&a, &b| card(a).total_cmp(&card(b)));
        let Some(&first) = order.first() else {
            return 0.0;
        };
        acc.clone_from(self.profiles.atom(first));
        let mut cost = acc.card;
        for &a in &order[1..] {
            let p = self.profiles.atom(a);
            if !self.indexed.is_empty() {
                // Index-aware pricing: a hash join first scans (and
                // charges) the probed atom's selection; an index seek
                // reads only the matching rows, so a seekable join with
                // an accumulator `SEEK_MARGIN` times smaller (the
                // evaluator's own rule) skips the scan term.
                let seek = self.seekable(a, acc) && acc.card * SEEK_MARGIN as f64 <= p.card;
                if !seek {
                    cost += p.card;
                }
            }
            join_profiles_into(acc, p, next);
            std::mem::swap(acc, next);
            cost += acc.card;
        }
        cost
    }
}

/// The price table of a query of `atoms` atoms.
fn empty_table(atoms: usize) -> Box<[Cell<(u64, f64)>]> {
    let slots = if atoms > TABLE_BITS { 0 } else { 1 << atoms };
    (0..slots).map(|_| Cell::new((0, 0.0))).collect()
}

/// The indices of the one-bits of `word`, ascending.
fn bits_of(word: u64) -> impl Iterator<Item = usize> {
    let mut rest = word;
    std::iter::from_fn(move || {
        (rest != 0).then(|| {
            let i = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            i
        })
    })
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

    /// With Optimize assumed, one more bounding atom adds 10 and changes
    /// no price; without it, the atom joins the priced set and a small,
    /// filtered one can lower the estimate. The 10 is strictly more only
    /// while `1 + tuples` stays below about 2^57 (≈ 1.4e17 estimated
    /// tuples): above that it rounds away, the two separators tie in
    /// cost bits and the search may return the one without the atom.
    fn charges_bounding_edges(&self) -> bool {
        self.assume_optimize
    }

    fn vertex_cost(
        &self,
        _h: &Hypergraph,
        lambda: &EdgeSet,
        assigned: &EdgeSet,
        _chi: &VarSet,
    ) -> f64 {
        // Optimize will prune bounding atoms supported by children; with
        // it assumed, price only the enforcing joins, plus a small
        // per-atom term so the search does not add gratuitous bounding
        // atoms.
        let words = (lambda.bits().as_word(), assigned.bits().as_word());
        let (tuples, bounding) = match words {
            (Some(l), Some(a)) if !self.table.is_empty() => {
                if self.assume_optimize {
                    (self.word_tuples(a), (l & !a).count_ones() as usize)
                } else {
                    (self.word_tuples(l | a), 0)
                }
            }
            _ if self.assume_optimize => {
                let bounding = lambda.iter().filter(|&e| !assigned.contains(e)).count();
                (self.wide_tuples(assigned), bounding)
            }
            _ => (self.wide_tuples(&lambda.union(assigned)), 0),
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
        setup_sized(1000)
    }

    /// [`setup`] with `big_rows` rows in the big relation (10 in each
    /// small one).
    fn setup_sized(big_rows: i64) -> (Database, htqo_cq::ConjunctiveQuery) {
        let mut db = Database::new();
        let schema = || Schema::new(&[("l", ColumnType::Int), ("r", ColumnType::Int)]);
        let mut big = Relation::new(schema());
        for i in 0..big_rows {
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
        let atoms = edges(&[0, 1]); // small s1 joins first, then big
        let price = |big_rows: i64, indexed: &[(&str, &str)]| {
            let (db, q) = setup_sized(big_rows);
            let stats = analyze(&db);
            let catalog: Vec<(String, String)> = (indexed.iter())
                .map(|(t, c)| (t.to_string(), c.to_string()))
                .collect();
            let model = StatsDecompCost::new(&stats, &q).with_indexes(&catalog);
            model.vertex_tuples(&atoms)
        };
        // An empty catalog is bit-identical to the legacy model.
        let (db, q) = setup();
        let stats = analyze(&db);
        let legacy = StatsDecompCost::new(&stats, &q).vertex_tuples(&atoms);
        assert_eq!(price(1000, &[]).to_bits(), legacy.to_bits());

        // With "big" indexed on the shared column (s1 joins big on Y,
        // bound to big.r), the seek skips the big-table scan once big is
        // `SEEK_MARGIN` times larger than s1; indexing an unrelated table
        // does not, and neither does a 100× ratio.
        let big = 10 * SEEK_MARGIN as i64;
        let (seek, no_help) = (price(big, &[("big", "r")]), price(big, &[("s2", "l")]));
        assert!(seek < no_help, "{seek} vs {no_help}");
        let near = price(1000, &[("big", "r")]);
        assert_eq!(near.to_bits(), price(1000, &[("s2", "l")]).to_bits());
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
