//! Normal-form hypertree decomposition search.
//!
//! This module implements both engines the paper builds on:
//!
//! - **det-k-decomp** ([`exists_decomposition`], [`hypertree_width`]): a
//!   backtracking search for *any* normal-form hypertree decomposition of
//!   width ≤ k (Gottlob–Leone–Scarcello);
//! - **cost-k-decomp** ([`cost_k_decomp`]): exact branch-and-bound dynamic
//!   programming over `(component, connector)` subproblems minimizing the
//!   sum of vertex costs supplied by a [`DecompCost`] model (the PODS'04
//!   weighted decompositions the paper's optimizer uses).
//!
//! Both work on the same subproblem space. A subproblem is an edge
//! component `C` with connector variables `conn`; a candidate separator is
//! a set `S` of at most `k` hyperedges such that `conn ⊆ var(S)` and
//! `S ∩ C ≠ ∅` (the progress condition that also yields the normal form).
//! The vertex labels are then `λ = S` and `χ = var(S) ∩ (conn ∪ var(C))`,
//! the edges of `C` fully covered by `χ` are *assigned* to the vertex, and
//! the recursion continues on the `[χ]`-components of `C`.
//!
//! The root subproblem can additionally be constrained to cover a set of
//! output variables (`χ(root) ⊇ out(Q)`), which is exactly Condition 2 of
//! q-hypertree decompositions (Definition 2 of the paper).
//!
//! # Engineering of the search (this module's raison d'être)
//!
//! The seed implementation (kept verbatim in [`baseline`] as the reference
//! oracle for the acceptance harness and the equivalence property tests)
//! memoized on cloned `(EdgeSet, VarSet)` pairs and enumerated every
//! ≤k-subset of the candidate edges. This implementation keeps the same
//! subproblem space and provably the same results, but:
//!
//! - **enumerates in registers**: one body, generic over the set
//!   representation (`crate::mask`), runs on `u64` masks whenever the
//!   hypergraph has at most 64 edges and 64 variables, and on the heap
//!   [`BitSet`](htqo_hypergraph::BitSet) otherwise. λ, χ and the assigned
//!   edges travel down the enumeration by value, the assigned edges are
//!   extended by the edges a new candidate's variables complete, the
//!   `[χ]`-components come from per-search incidence masks, and the memo
//!   is keyed by the `(component, connector)` masks themselves;
//! - **prunes the separator enumeration**: candidate edges are ordered by
//!   scope coverage, whole enumeration branches are cut when the remaining
//!   candidates cannot cover the connector (or reach the component), and
//!   λ-equivalent separators (same `var(S)`) are deduplicated in
//!   first-success mode;
//! - **bounds**: a partial solution is abandoned as soon as its
//!   accumulated cost plus an admissible per-component lower bound
//!   ([`DecompCost::min_vertex_cost`]) reaches the incumbent.
//!
//! The search runs on the calling thread: one memo, plain counters. Every
//! subproblem is solved to optimality with only subproblem-local
//! incumbents, so the optimum does not depend on the order in which
//! sibling components are solved.

use crate::cost::DecompCost;
use crate::hypertree::{Hypertree, HypertreeBuilder, NodeId};
use crate::mask::Mask;
use htqo_hypergraph::fxhash::{FxHashMap, FxHashSet};
use htqo_hypergraph::{BitSet, EdgeSet, Hypergraph, VarSet};
use std::rc::Rc;

/// Search configuration.
#[derive(Clone, Debug)]
pub struct SearchOptions {
    /// Maximum width `k` (the paper notes `k = 4` suffices in practice).
    /// `0` admits no separator at all: every non-empty hypergraph is a
    /// Failure (`None`), it is not read as width 1.
    pub max_width: usize,
    /// When set, the root's χ must cover these variables (Condition 2 of
    /// Definition 2 — used for q-hypertree decompositions).
    pub root_cover: Option<VarSet>,
}

impl SearchOptions {
    /// Plain width-k search.
    pub fn width(k: usize) -> Self {
        SearchOptions {
            max_width: k,
            root_cover: None,
        }
    }

    /// Width-k search whose root must cover `out`.
    pub fn width_with_root_cover(k: usize, out: VarSet) -> Self {
        SearchOptions {
            max_width: k,
            root_cover: Some(out),
        }
    }
}

/// Instrumentation counters for one decomposition search, exposed for the
/// ablation harness and the paper's "decomposition is cheap" claims.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Distinct `(component, connector)` subproblems solved.
    pub subproblems: usize,
    /// Candidate separators examined across all subproblems (separators
    /// whose enumeration branch was pruned are never examined and do not
    /// count).
    pub separators_tried: usize,
    /// Memo-table hits (work saved by the DP).
    pub memo_hits: usize,
    /// Enumeration branches cut because the remaining candidate edges
    /// cannot cover the connector / root-cover deficit or reach the
    /// component (the subset pre-check on bitset words).
    pub cover_rejects: usize,
    /// Separators skipped because a λ-equivalent one (identical `var(S)`)
    /// was already tried for the same subproblem (first-success mode).
    pub lambda_dedup: usize,
    /// Partial solutions abandoned because accumulated cost plus the
    /// admissible per-component lower bound reached the incumbent.
    pub bound_cuts: usize,
}

/// A shared, immutable plan node produced by the DP (converted into a
/// [`Hypertree`] at the end; sharing matters because the memo table reuses
/// subtrees across parents).
struct PlanNode<S> {
    lambda: S,
    chi: S,
    assigned: S,
    children: Vec<Rc<PlanNode<S>>>,
}

type MemoEntry<S> = Option<(f64, Rc<PlanNode<S>>)>;
/// Keyed by the `(component, connector)` sets themselves.
type Memo<S> = FxHashMap<(S, S), MemoEntry<S>>;

/// One candidate separator edge, with its precomputed scope coverage.
struct Cand<S> {
    id: usize,
    /// `var(e) ∩ scope` — everything the edge can contribute to χ.
    cover: S,
    in_comp: bool,
}

/// What stays fixed while one subproblem's separators are enumerated.
struct Subproblem<'s, S> {
    comp: &'s S,
    conn: &'s S,
    root_cover: Option<&'s S>,
    /// Ordered by decreasing scope coverage, ties by id.
    candidates: Vec<Cand<S>>,
    /// `suffix_cover[i]` / `suffix_in_comp[i]`: the coverage and the
    /// component contact still reachable from candidate `i` on.
    suffix_cover: Vec<S>,
    suffix_in_comp: Vec<bool>,
}

/// A separator under construction and the vertex labels it induces, passed
/// down the enumeration by value (three words in the word instantiation).
#[derive(Clone)]
struct Separator<S> {
    /// The edges chosen so far (λ).
    lambda: S,
    /// `var(λ) ∩ scope` — exactly the χ this separator would produce.
    chi: S,
    /// The component edges χ covers, which the vertex enforces.
    assigned: S,
    /// The progress condition `λ ∩ comp ≠ ∅`.
    has_comp_edge: bool,
}

/// Per-subproblem enumeration state: the incumbent, the λ-dedup table,
/// and the typed sets a separator's labels are written into for
/// [`DecompCost::vertex_cost`] (reused, so a separator that is bound-cut
/// on its vertex cost allocates nothing).
struct EnumCtx<S> {
    best: MemoEntry<S>,
    lent_lambda: EdgeSet,
    lent_assigned: EdgeSet,
    lent_chi: VarSet,
    /// `var(S) ∩ scope` values already tried (first-success mode only).
    seen_covers: Option<FxHashSet<S>>,
}

struct Searcher<'a, S> {
    h: &'a Hypergraph,
    k: usize,
    cost: &'a dyn DecompCost,
    /// In first-success mode the search stops refining once any solution is
    /// found for a subproblem.
    first_success: bool,
    /// Admissible lower bound charged per undecomposed component.
    comp_lb: f64,
    /// `edge_vars[e]` = `var(e)`.
    edge_vars: Vec<S>,
    /// `var_edges[v]` = the edges containing `v`.
    var_edges: Vec<S>,
    memo: Memo<S>,
    stats: SearchStats,
}

impl<'a, S: Mask> Searcher<'a, S> {
    fn new(h: &'a Hypergraph, k: usize, cost: &'a dyn DecompCost, first_success: bool) -> Self {
        Searcher {
            h,
            k,
            cost,
            first_success,
            comp_lb: cost.min_vertex_cost(h),
            edge_vars: h
                .edge_ids()
                .map(|e| S::load(h.edge_vars(e).bits()))
                .collect(),
            var_edges: h
                .var_ids()
                .map(|v| S::load(h.edges_with_var(v).bits()))
                .collect(),
            memo: Memo::default(),
            stats: SearchStats::default(),
        }
    }

    /// `var(edges)`.
    fn vars_of(&self, edges: &S) -> S {
        let mut vars = S::default();
        for e in edges.iter() {
            vars.union_with(&self.edge_vars[e]);
        }
        vars
    }

    /// Solves a memoized subproblem: the optimal decomposition of the
    /// component `comp` whose root covers the connector `conn`.
    fn solve(&mut self, comp: S, conn: S) -> MemoEntry<S> {
        let key = (comp, conn);
        if let Some(cached) = self.memo.get(&key) {
            self.stats.memo_hits += 1;
            return cached.clone();
        }
        self.stats.subproblems += 1;
        let result = self.solve_uncached(&key.0, &key.1, None);
        self.memo.insert(key, result.clone());
        result
    }

    /// Enumerates candidate separators for a subproblem and returns the
    /// best (or first) solution.
    fn solve_uncached(&mut self, comp: &S, conn: &S, root_cover: Option<&S>) -> MemoEntry<S> {
        let mut scope = self.vars_of(comp);
        scope.union_with(conn);

        // Candidate separator edges: anything touching the subproblem,
        // ordered by decreasing scope coverage (ties by id for
        // determinism). High-coverage edges first means good incumbents
        // are found early, which powers the bound cuts below.
        let mut candidates: Vec<Cand<S>> = (0..self.edge_vars.len())
            .filter_map(|e| {
                let mut cover = self.edge_vars[e].clone();
                cover.intersect_with(&scope);
                (!cover.is_empty()).then(|| Cand {
                    id: e,
                    cover,
                    in_comp: comp.contains(e),
                })
            })
            .collect();
        candidates.sort_by(|a, b| b.cover.len().cmp(&a.cover.len()).then(a.id.cmp(&b.id)));

        let n = candidates.len();
        let mut suffix_cover = vec![S::default(); n + 1];
        let mut suffix_in_comp = vec![false; n + 1];
        for i in (0..n).rev() {
            suffix_cover[i] = suffix_cover[i + 1].clone();
            suffix_cover[i].union_with(&candidates[i].cover);
            suffix_in_comp[i] = suffix_in_comp[i + 1] || candidates[i].in_comp;
        }
        let sub = Subproblem {
            comp,
            conn,
            root_cover,
            candidates,
            suffix_cover,
            suffix_in_comp,
        };

        // The empty separator covers exactly the variable-less edges.
        let mut covered_by_nothing = S::default();
        comp.iter()
            .filter(|&e| self.edge_vars[e].is_empty())
            .for_each(|e| covered_by_nothing.insert(e));
        let empty = Separator {
            lambda: S::default(),
            chi: S::default(),
            assigned: covered_by_nothing,
            has_comp_edge: false,
        };
        let mut ctx = EnumCtx {
            best: None,
            lent_lambda: EdgeSet::new(),
            lent_assigned: EdgeSet::new(),
            lent_chi: VarSet::new(),
            seen_covers: self.first_success.then(FxHashSet::default),
        };
        self.enumerate(&sub, 0, 0, empty, &mut ctx);
        ctx.best
    }

    /// Recursive subset enumeration (sizes 1..=k) with branch pruning.
    /// `sep` is the separator of the `depth` edges chosen so far, drawn
    /// from the candidates before `start`.
    fn enumerate(
        &mut self,
        sub: &Subproblem<S>,
        start: usize,
        depth: usize,
        sep: Separator<S>,
        ctx: &mut EnumCtx<S>,
    ) {
        if self.first_success && ctx.best.is_some() {
            return;
        }
        if depth > 0
            && sep.has_comp_edge
            && sub.conn.is_subset(&sep.chi)
            && sub.root_cover.is_none_or(|req| req.is_subset(&sep.chi))
        {
            // λ-equivalence dedup: two separators with the same var(S)
            // produce the same χ, the same components and the same child
            // subproblems. In first-success mode one verdict settles all
            // of them; in cost mode their vertex costs differ, so every
            // one must be priced.
            let duplicate = match &mut ctx.seen_covers {
                Some(seen) => !seen.insert(sep.chi.clone()),
                None => false,
            };
            if duplicate {
                self.stats.lambda_dedup += 1;
            } else {
                self.stats.separators_tried += 1;
                self.try_separator(sub, &sep, ctx);
            }
        }
        if depth == self.k {
            return;
        }
        // Branch feasibility pre-checks: prune the whole extension subtree
        // when the remaining candidates cannot supply the missing
        // connector/root coverage or the progress edge.
        let reachable = &sub.suffix_cover[start];
        if !sub.conn.is_subset_of_union(&sep.chi, reachable)
            || sub
                .root_cover
                .is_some_and(|req| !req.is_subset_of_union(&sep.chi, reachable))
            || (!sep.has_comp_edge && !sub.suffix_in_comp[start])
        {
            self.stats.cover_rejects += 1;
            return;
        }
        for (i, cand) in sub.candidates.iter().enumerate().skip(start) {
            if self.first_success && ctx.best.is_some() {
                return;
            }
            let extended = self.extend(sub.comp, &sep, cand);
            self.enumerate(sub, i + 1, depth + 1, extended, ctx);
        }
    }

    /// `sep` with one more candidate edge.
    fn extend(&self, comp: &S, sep: &Separator<S>, cand: &Cand<S>) -> Separator<S> {
        let mut next = sep.clone();
        next.lambda.insert(cand.id);
        next.chi.union_with(&cand.cover);
        next.has_comp_edge |= cand.in_comp;
        // A component edge χ did not cover before is covered now only if
        // it holds one of the variables this candidate adds.
        let mut added = cand.cover.clone();
        added.difference_with(&sep.chi);
        for v in added.iter() {
            let mut touched = self.var_edges[v].clone();
            touched.intersect_with(comp);
            touched.difference_with(&next.assigned);
            for e in touched.iter() {
                if self.edge_vars[e].is_subset(&next.chi) {
                    next.assigned.insert(e);
                }
            }
        }
        next
    }

    /// The `[χ]`-components of `comp`, each with its connector
    /// `var(component) ∩ χ`, ordered by smallest contained edge.
    /// `assigned` is the part of `comp` that χ covers and that therefore
    /// belongs to no component.
    fn components(&self, comp: &S, assigned: &S, chi: &S) -> Vec<(S, S)> {
        let mut remaining = comp.clone();
        remaining.difference_with(assigned);
        let mut out = Vec::new();
        while let Some(start) = remaining.first() {
            let mut members = S::default();
            members.insert(start);
            remaining.difference_with(&members);
            let mut vars = self.edge_vars[start].clone();
            // χ and the variables whose edges have been pulled in.
            let mut expanded = chi.clone();
            loop {
                let mut frontier = vars.clone();
                frontier.difference_with(&expanded);
                if frontier.is_empty() {
                    break;
                }
                expanded.union_with(&frontier);
                let mut joined = S::default();
                for v in frontier.iter() {
                    joined.union_with(&self.var_edges[v]);
                }
                joined.intersect_with(&remaining);
                remaining.difference_with(&joined);
                for e in joined.iter() {
                    vars.union_with(&self.edge_vars[e]);
                }
                members.union_with(&joined);
            }
            vars.intersect_with(chi);
            out.push((members, vars));
        }
        out
    }

    /// Prices one full candidate separator: recurses on the
    /// `[χ]`-components and updates the incumbent. The separator has
    /// already passed the progress, connector-cover and root-cover checks.
    fn try_separator(&mut self, sub: &Subproblem<S>, sep: &Separator<S>, ctx: &mut EnumCtx<S>) {
        // The progress edge lies inside the scope, so χ covers it: every
        // child component is strictly smaller and no subproblem can
        // re-enter itself.
        debug_assert!(
            !sep.assigned.is_empty(),
            "progress condition violated: the separator assigns no component edge"
        );
        sep.lambda.store(ctx.lent_lambda.bits_mut());
        sep.assigned.store(ctx.lent_assigned.bits_mut());
        sep.chi.store(ctx.lent_chi.bits_mut());
        let mut total =
            self.cost
                .vertex_cost(self.h, &ctx.lent_lambda, &ctx.lent_assigned, &ctx.lent_chi);
        // First bound cut on the vertex cost alone, before paying for the
        // component split.
        if let Some((bound, _)) = &ctx.best {
            if total >= *bound {
                self.stats.bound_cuts += 1;
                return;
            }
        }
        let subcomps = self.components(sub.comp, &sep.assigned, &sep.chi);
        // Refined cut: even if every remaining component decomposed at the
        // admissible minimum, this branch cannot beat the incumbent.
        if self.comp_lb > 0.0 && !subcomps.is_empty() {
            if let Some((bound, _)) = &ctx.best {
                if total + subcomps.len() as f64 * self.comp_lb >= *bound {
                    self.stats.bound_cuts += 1;
                    return;
                }
            }
        }

        let remaining = subcomps.len();
        let mut children = Vec::with_capacity(remaining);
        for (solved, (sc, child_conn)) in subcomps.into_iter().enumerate() {
            match self.solve(sc, child_conn) {
                Some((c, plan)) => {
                    total += c;
                    // Children still unsolved each cost ≥ comp_lb.
                    let rest = (remaining - solved - 1) as f64 * self.comp_lb;
                    if let Some((bound, _)) = &ctx.best {
                        if total + rest >= *bound {
                            self.stats.bound_cuts += 1;
                            return;
                        }
                    }
                    children.push(plan);
                }
                None => return, // this separator cannot decompose the rest
            }
        }

        let better = match &ctx.best {
            None => true,
            Some((bound, _)) => total < *bound,
        };
        if better {
            ctx.best = Some((
                total,
                Rc::new(PlanNode {
                    lambda: sep.lambda.clone(),
                    chi: sep.chi.clone(),
                    assigned: sep.assigned.clone(),
                    children,
                }),
            ));
        }
    }
}

/// Materializes a plan into a [`Hypertree`].
fn build_tree<S: Mask>(plan: &PlanNode<S>) -> Hypertree {
    fn rec<S: Mask>(plan: &PlanNode<S>, b: &mut HypertreeBuilder) -> NodeId {
        let children: Vec<NodeId> = plan.children.iter().map(|c| rec(c, b)).collect();
        b.add(
            plan.chi.to_bits().into(),
            plan.lambda.to_bits().into(),
            plan.assigned.to_bits().into(),
            children,
        )
    }
    let mut b = HypertreeBuilder::new();
    let root = rec(plan, &mut b);
    b.build(root)
}

/// Runs the search. Returns the minimum-cost normal-form decomposition of
/// width ≤ `opts.max_width` satisfying the root constraint, or `None` if no
/// such decomposition exists (the paper's "Failure").
pub fn cost_k_decomp(
    h: &Hypergraph,
    opts: &SearchOptions,
    cost: &dyn DecompCost,
) -> Option<Hypertree> {
    search(h, opts, cost, false).map(|(_, t, _)| t)
}

/// Like [`cost_k_decomp`] but also returns the total estimated cost.
pub fn cost_k_decomp_with_cost(
    h: &Hypergraph,
    opts: &SearchOptions,
    cost: &dyn DecompCost,
) -> Option<(f64, Hypertree)> {
    search(h, opts, cost, false).map(|(c, t, _)| (c, t))
}

/// Like [`cost_k_decomp_with_cost`] but also returns search
/// instrumentation.
pub fn cost_k_decomp_instrumented(
    h: &Hypergraph,
    opts: &SearchOptions,
    cost: &dyn DecompCost,
) -> Option<(f64, Hypertree, SearchStats)> {
    search(h, opts, cost, false)
}

/// det-k-decomp: is there a width-≤k normal-form hypertree decomposition?
pub fn exists_decomposition(h: &Hypergraph, k: usize) -> bool {
    det_k_decomp(h, k).is_some()
}

/// First-success decomposition (det-k-decomp): any NF decomposition of
/// width ≤ `k`, or `None`.
pub fn det_k_decomp(h: &Hypergraph, k: usize) -> Option<Hypertree> {
    det_k_decomp_instrumented(h, k).map(|(_, t, _)| t)
}

/// [`det_k_decomp`] with its cost and counters (for the tests that hold
/// the two set representations to each other in det-k mode).
#[doc(hidden)]
pub fn det_k_decomp_instrumented(
    h: &Hypergraph,
    k: usize,
) -> Option<(f64, Hypertree, SearchStats)> {
    search(
        h,
        &SearchOptions::width(k),
        &crate::cost::StructuralCost,
        true,
    )
}

/// The hypertree width of `h`: smallest `k` admitting a decomposition.
/// (Acyclic hypergraphs have width 1.)
pub fn hypertree_width(h: &Hypergraph) -> usize {
    for k in 1..=h.num_edges().max(1) {
        if exists_decomposition(h, k) {
            return k;
        }
    }
    unreachable!("width ≤ number of edges always admits a decomposition")
}

/// The search on word masks when every set of `h` (and the root cover)
/// fits 64 bits, on heap bit sets otherwise. Both run the same body and
/// return the same tree and counters; only the speed differs.
fn search(
    h: &Hypergraph,
    opts: &SearchOptions,
    cost: &dyn DecompCost,
    first_success: bool,
) -> Option<(f64, Hypertree, SearchStats)> {
    let fits_word = h.num_edges().max(h.num_vars()) <= 64
        && opts
            .root_cover
            .as_ref()
            .is_none_or(|out| out.bits().as_word().is_some());
    if fits_word {
        search_on::<u64>(h, opts, cost, first_success)
    } else {
        search_on::<BitSet>(h, opts, cost, first_success)
    }
}

/// Test entry: the search forced onto heap bit sets, whatever the size of
/// `h`, in cost mode or (`first_success`) det-k mode. The equivalence
/// property tests hold it against the word instantiation.
#[doc(hidden)]
pub fn search_on_heap_sets(
    h: &Hypergraph,
    opts: &SearchOptions,
    cost: &dyn DecompCost,
    first_success: bool,
) -> Option<(f64, Hypertree, SearchStats)> {
    search_on::<BitSet>(h, opts, cost, first_success)
}

fn search_on<S: Mask>(
    h: &Hypergraph,
    opts: &SearchOptions,
    cost: &dyn DecompCost,
    first_success: bool,
) -> Option<(f64, Hypertree, SearchStats)> {
    if h.num_edges() == 0 {
        // Degenerate: a single empty vertex.
        let mut b = HypertreeBuilder::new();
        let root = b.add(VarSet::new(), EdgeSet::new(), EdgeSet::new(), vec![]);
        return Some((0.0, b.build(root), SearchStats::default()));
    }
    let mut s = Searcher::<S>::new(h, opts.max_width, cost, first_success);
    let root_cover = opts.root_cover.as_ref().map(|out| S::load(out.bits()));
    let (total, plan) =
        s.solve_uncached(&S::full(h.num_edges()), &S::default(), root_cover.as_ref())?;
    let tree = build_tree(&plan);
    debug_assert!(crate::validate::check_edge_coverage(h, &tree).is_ok());
    debug_assert!(crate::validate::check_connectedness(h, &tree).is_ok());
    debug_assert!(crate::validate::check_assignment(h, &tree).is_ok());
    Some((total, tree, s.stats))
}

/// The seed search implementation, frozen as the reference oracle.
///
/// This is the pre-branch-and-bound engine the repository seeded with: a
/// `std::collections::HashMap` memo keyed by cloned `(EdgeSet, VarSet)`
/// pairs and an exhaustive, unpruned enumeration of all ≤k-edge
/// separators. It exists so the acceptance harness
/// (`crates/bench/src/bin/decomp.rs`) and the equivalence property tests
/// can compare the engineered search against a known-exact baseline —
/// production callers should use [`cost_k_decomp`] and friends.
pub mod baseline {
    use super::{build_tree_seed, SearchOptions, SearchStats};
    use crate::cost::DecompCost;
    use crate::hypertree::{Hypertree, HypertreeBuilder};
    use htqo_hypergraph::{components, EdgeId, EdgeSet, Hypergraph, VarSet};
    use std::collections::HashMap;
    use std::rc::Rc;

    pub(super) struct PlanNode {
        pub(super) lambda: EdgeSet,
        pub(super) chi: VarSet,
        pub(super) assigned: EdgeSet,
        pub(super) children: Vec<Rc<PlanNode>>,
    }

    type Memo = HashMap<(EdgeSet, VarSet), Option<(f64, Rc<PlanNode>)>>;

    struct Searcher<'a> {
        h: &'a Hypergraph,
        k: usize,
        cost: &'a dyn DecompCost,
        memo: Memo,
        first_success: bool,
        stats: SearchStats,
    }

    impl<'a> Searcher<'a> {
        fn solve(&mut self, comp: &EdgeSet, conn: &VarSet) -> Option<(f64, Rc<PlanNode>)> {
            let key = (comp.clone(), conn.clone());
            if let Some(cached) = self.memo.get(&key) {
                self.stats.memo_hits += 1;
                return cached.clone();
            }
            self.stats.subproblems += 1;
            let result = self.solve_uncached(comp, conn, None);
            self.memo.insert(key, result.clone());
            result
        }

        fn solve_uncached(
            &mut self,
            comp: &EdgeSet,
            conn: &VarSet,
            root_cover: Option<&VarSet>,
        ) -> Option<(f64, Rc<PlanNode>)> {
            let comp_vars = self.h.vars_of_edges(comp);
            let scope = conn.union(&comp_vars);
            let candidates: Vec<EdgeId> = self
                .h
                .edge_ids()
                .filter(|&e| self.h.edge_vars(e).intersects(&scope))
                .collect();
            let mut best = None;
            let mut sep = Vec::with_capacity(self.k);
            self.enumerate(
                &candidates,
                0,
                &mut sep,
                comp,
                conn,
                &scope,
                root_cover,
                &mut best,
            );
            best
        }

        #[allow(clippy::too_many_arguments)]
        fn enumerate(
            &mut self,
            candidates: &[EdgeId],
            start: usize,
            sep: &mut Vec<EdgeId>,
            comp: &EdgeSet,
            conn: &VarSet,
            scope: &VarSet,
            root_cover: Option<&VarSet>,
            best: &mut Option<(f64, Rc<PlanNode>)>,
        ) {
            if self.first_success && best.is_some() {
                return;
            }
            if !sep.is_empty() {
                self.try_separator(sep, comp, conn, scope, root_cover, best);
            }
            if sep.len() == self.k {
                return;
            }
            for i in start..candidates.len() {
                sep.push(candidates[i]);
                self.enumerate(candidates, i + 1, sep, comp, conn, scope, root_cover, best);
                sep.pop();
            }
        }

        #[allow(clippy::too_many_arguments)]
        fn try_separator(
            &mut self,
            sep: &[EdgeId],
            comp: &EdgeSet,
            conn: &VarSet,
            scope: &VarSet,
            root_cover: Option<&VarSet>,
            best: &mut Option<(f64, Rc<PlanNode>)>,
        ) {
            self.stats.separators_tried += 1;
            let sep_set: EdgeSet = sep.iter().copied().collect();
            if sep_set.is_disjoint(comp) {
                return;
            }
            let sep_vars = self.h.vars_of_edges(&sep_set);
            if !conn.is_subset(&sep_vars) {
                return;
            }
            let chi = sep_vars.intersection(scope);
            if let Some(required) = root_cover {
                if !required.is_subset(&chi) {
                    return;
                }
            }
            let assigned: EdgeSet = comp
                .iter()
                .filter(|&e| self.h.edge_vars(e).is_subset(&chi))
                .collect();

            let mut total = self.cost.vertex_cost(self.h, &sep_set, &assigned, &chi);
            if let Some((bound, _)) = best {
                if total >= *bound {
                    return;
                }
            }

            let subcomps = components(self.h, comp, &chi);
            let mut children = Vec::with_capacity(subcomps.len());
            for sc in &subcomps {
                let child_conn = self.h.vars_of_edges(sc).intersection(&chi);
                match self.solve(sc, &child_conn) {
                    Some((c, plan)) => {
                        total += c;
                        if let Some((bound, _)) = best {
                            if total >= *bound {
                                return;
                            }
                        }
                        children.push(plan);
                    }
                    None => return,
                }
            }

            let better = match best {
                None => true,
                Some((bound, _)) => total < *bound,
            };
            if better {
                *best = Some((
                    total,
                    Rc::new(PlanNode {
                        lambda: sep_set,
                        chi,
                        assigned,
                        children,
                    }),
                ));
            }
        }
    }

    /// The seed `cost_k_decomp`, with cost and instrumentation. Exact, but
    /// unpruned and sequential — the oracle the engineered search is
    /// verified against.
    pub fn cost_k_decomp_instrumented(
        h: &Hypergraph,
        opts: &SearchOptions,
        cost: &dyn DecompCost,
    ) -> Option<(f64, Hypertree, SearchStats)> {
        if h.num_edges() == 0 {
            let mut b = HypertreeBuilder::new();
            let root = b.add(VarSet::new(), EdgeSet::new(), EdgeSet::new(), vec![]);
            return Some((0.0, b.build(root), SearchStats::default()));
        }
        let mut s = Searcher {
            h,
            k: opts.max_width,
            cost,
            memo: HashMap::new(),
            first_success: false,
            stats: SearchStats::default(),
        };
        let all = h.all_edges();
        let (total, plan) = s.solve_uncached(&all, &VarSet::new(), opts.root_cover.as_ref())?;
        Some((total, build_tree_seed(&plan), s.stats))
    }
}

/// Materializes a baseline plan into a [`Hypertree`].
fn build_tree_seed(plan: &baseline::PlanNode) -> Hypertree {
    fn rec(plan: &baseline::PlanNode, b: &mut HypertreeBuilder) -> NodeId {
        let children: Vec<NodeId> = plan.children.iter().map(|c| rec(c, b)).collect();
        b.add(
            plan.chi.clone(),
            plan.lambda.clone(),
            plan.assigned.clone(),
            children,
        )
    }
    let mut b = HypertreeBuilder::new();
    let root = rec(plan, &mut b);
    b.build(root)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::StructuralCost;
    use crate::validate;

    fn build(edges: &[(&str, &[&str])]) -> Hypergraph {
        let mut b = Hypergraph::builder();
        for (name, vars) in edges {
            b.edge(name, vars);
        }
        b.build()
    }

    #[test]
    fn acyclic_line_has_width_1() {
        let h = build(&[
            ("p1", &["A", "B"]),
            ("p2", &["B", "C"]),
            ("p3", &["C", "D"]),
        ]);
        assert_eq!(hypertree_width(&h), 1);
        let t = det_k_decomp(&h, 1).unwrap();
        assert_eq!(t.width(), 1);
        assert!(validate::check_hd(&h, &t).is_ok());
    }

    #[test]
    fn triangle_has_width_2() {
        let h = build(&[("r", &["X", "Y"]), ("s", &["Y", "Z"]), ("t", &["Z", "X"])]);
        assert!(!exists_decomposition(&h, 1));
        assert_eq!(hypertree_width(&h), 2);
        let t = det_k_decomp(&h, 2).unwrap();
        assert!(validate::check_generalized_hd(&h, &t).is_ok() || t.width() <= 2);
        assert!(validate::check_edge_coverage(&h, &t).is_ok());
        assert!(validate::check_connectedness(&h, &t).is_ok());
        assert!(validate::check_assignment(&h, &t).is_ok());
    }

    #[test]
    fn chain_cycle_has_width_2() {
        // The paper's chain queries (cyclic line): width 2 for n ≥ 3.
        let h = build(&[
            ("p1", &["A", "B"]),
            ("p2", &["B", "C"]),
            ("p3", &["C", "D"]),
            ("p4", &["D", "E"]),
            ("p5", &["E", "A"]),
        ]);
        assert_eq!(hypertree_width(&h), 2);
    }

    #[test]
    fn tpch_q5_hypergraph_has_width_2() {
        // Figure 1 / Example 1 of the paper: Q5 is cyclic with hw = 2.
        let h = build(&[
            ("customer", &["CustKey", "NationKey"]),
            ("orders", &["OrdKey", "CustKey"]),
            ("lineitem", &["SuppKey", "OrdKey", "EP", "D"]),
            ("supplier", &["SuppKey", "NationKey"]),
            ("nation", &["Name", "NationKey", "RegionKey"]),
            ("region", &["RegionKey"]),
        ]);
        assert_eq!(hypertree_width(&h), 2);
    }

    #[test]
    fn root_cover_constraint_is_honoured() {
        let h = build(&[("a", &["X", "Y"]), ("b", &["Y", "Z"]), ("c", &["Z", "W"])]);
        // Require X and W at the root: impossible with k = 1 (the paper's
        // Example 4 effect: the output cover may force a larger width).
        let out: VarSet = ["X", "W"]
            .iter()
            .map(|n| h.var_by_name(n).unwrap())
            .collect();
        let opts1 = SearchOptions::width_with_root_cover(1, out.clone());
        assert!(cost_k_decomp(&h, &opts1, &StructuralCost).is_none());
        let opts2 = SearchOptions::width_with_root_cover(2, out.clone());
        let t = cost_k_decomp(&h, &opts2, &StructuralCost).unwrap();
        assert!(validate::check_qhd(&h, &t, &out).is_ok());
        assert!(out.is_subset(&t.node(t.root()).chi));
    }

    #[test]
    fn disconnected_hypergraph_decomposes() {
        let h = build(&[("a", &["X", "Y"]), ("b", &["P", "Q"])]);
        let t = det_k_decomp(&h, 1).unwrap();
        assert!(validate::check_edge_coverage(&h, &t).is_ok());
        assert!(validate::check_assignment(&h, &t).is_ok());
    }

    #[test]
    fn structural_cost_prefers_fewer_vertices() {
        // A single edge covering everything should beat two vertices.
        let h = build(&[
            ("big", &["X", "Y", "Z"]),
            ("r", &["X", "Y"]),
            ("s", &["Y", "Z"]),
        ]);
        let t = cost_k_decomp(&h, &SearchOptions::width(2), &StructuralCost).unwrap();
        // big covers r and s: one vertex suffices.
        assert_eq!(t.len(), 1);
        assert_eq!(t.node(t.root()).assigned.len(), 3);
    }

    #[test]
    fn empty_hypergraph_degenerate() {
        let h = Hypergraph::builder().build();
        let t = det_k_decomp(&h, 1).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.width(), 0);
    }

    #[test]
    fn width_zero_is_failure_not_width_one() {
        // An acyclic line has width 1; asking for width 0 must not find it.
        let h = build(&[("a", &["X", "Y"]), ("b", &["Y", "Z"])]);
        let opts = SearchOptions::width(0);
        assert!(cost_k_decomp_instrumented(&h, &opts, &StructuralCost).is_none());
        assert!(search_on_heap_sets(&h, &opts, &StructuralCost, false).is_none());
        assert!(baseline::cost_k_decomp_instrumented(&h, &opts, &StructuralCost).is_none());
        assert!(!exists_decomposition(&h, 0));
        // The empty hypergraph needs no separator.
        let empty = Hypergraph::builder().build();
        assert!(cost_k_decomp(&empty, &opts, &StructuralCost).is_some());
    }

    #[test]
    fn width_search_matches_existence() {
        let h = build(&[
            ("r", &["X", "Y"]),
            ("s", &["Y", "Z"]),
            ("t", &["Z", "X"]),
            ("u", &["X", "W"]),
        ]);
        let w = hypertree_width(&h);
        assert!(exists_decomposition(&h, w));
        assert!(!exists_decomposition(&h, w - 1));
    }

    #[test]
    fn cost_decomposition_has_min_width_when_structural() {
        // Structural cost never pays for wider vertices unless needed.
        let h = build(&[
            ("p1", &["A", "B"]),
            ("p2", &["B", "C"]),
            ("p3", &["C", "A"]),
        ]);
        let t = cost_k_decomp(&h, &SearchOptions::width(3), &StructuralCost).unwrap();
        assert!(t.width() <= 2);
    }

    #[test]
    fn pruning_counters_fire_and_costs_match_baseline() {
        // 6-edge cyclic chain: pruning must both fire and stay exact.
        let h = build(&[
            ("p1", &["A", "B"]),
            ("p2", &["B", "C"]),
            ("p3", &["C", "D"]),
            ("p4", &["D", "E"]),
            ("p5", &["E", "F"]),
            ("p6", &["F", "A"]),
        ]);
        for k in 2..=4 {
            let opts = SearchOptions::width(k);
            let (seed_cost, _, seed_stats) =
                baseline::cost_k_decomp_instrumented(&h, &opts, &StructuralCost).unwrap();
            let (bnb_cost, tree, stats) =
                cost_k_decomp_instrumented(&h, &opts, &StructuralCost).unwrap();
            assert_eq!(seed_cost, bnb_cost, "k={k}");
            assert!(validate::check_edge_coverage(&h, &tree).is_ok());
            assert!(
                stats.separators_tried < seed_stats.separators_tried,
                "k={k}: {} !< {}",
                stats.separators_tried,
                seed_stats.separators_tried
            );
            assert!(stats.bound_cuts + stats.cover_rejects > 0, "k={k}");
        }
    }

    #[test]
    fn memoized_diamond_reentry_is_a_memo_hit_not_a_cycle() {
        // A "cyclic-looking" subproblem graph: the two width-1 separators
        // {a} and {b} leave the same tail component {c, d}, so the tail
        // subproblem is reached twice. The second visit must be served by
        // the memo.
        let h = build(&[
            ("a", &["X", "Y"]),
            ("b", &["X", "Y"]),
            ("c", &["Y", "Z"]),
            ("d", &["Z", "W"]),
        ]);
        let (_, tree, stats) =
            cost_k_decomp_instrumented(&h, &SearchOptions::width(2), &StructuralCost).unwrap();
        assert!(validate::check_edge_coverage(&h, &tree).is_ok());
        assert!(stats.memo_hits > 0, "diamond must hit the memo: {stats:?}");
    }
}
