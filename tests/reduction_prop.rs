//! Property suite for `P″` (DESIGN.md §3.4): a child whose χ(p)
//! variables the vertex's relation already holds is a *filter* and is
//! applied as the semijoin `acc ⋉ child`; a child that supplies a χ(p)
//! variable — one `Optimize` took from λ(p) — is joined. Where a filter's
//! key-set reservation is denied, it takes the join path, which can
//! spill. On lines, cycles and random binary shapes, with `Optimize` on
//! and off, under the structural and the statistics cost model, q-HD
//! evaluation must answer what the nested-loop reference answers: in
//! memory, under `SpillMode::Force`, and under byte limits tight enough
//! to deny the semijoin its key set.
//!
//! `both_edge_kinds_and_the_spill_fallback_occur` classifies every
//! (vertex, child) edge of the generated plans and proves that filter
//! edges, supplying edges and the fallback all occur.
//!
//! Case count is `HTQO_CHAOS_CASES` (default 64).

mod support;

use htqo::prelude::*;
use htqo_engine::error::SpillMode;
use htqo_engine::schema::ColumnType;
use htqo_hypergraph::VarSet;
use proptest::prelude::*;
use support::{is_reference, reference};

fn cases() -> u32 {
    std::env::var("HTQO_CHAOS_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(64)
}

/// SplitMix64: a case is expanded from one generated seed, so a failure
/// report names everything needed to replay it.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// What a plan asks of `P′` and `P″`.
#[derive(Default)]
struct Shape {
    /// (vertex, child) edges whose child only filters.
    filters: usize,
    /// Edges whose child supplies a χ(p) variable.
    supplying: usize,
    /// Some vertex joins two or more atoms in `P′`.
    vertex_joins: bool,
}

/// One query over its own database, and its decomposition.
struct Case {
    seed: u64,
    db: Database,
    q: ConjunctiveQuery,
    plan: QhdPlan,
}

impl Case {
    /// A line, a cycle or a random connected binary query of 3–7 atoms,
    /// each atom over its own `(l, r)` table; one to three output
    /// variables; `Optimize` on or off; the structural or the statistics
    /// cost model.
    fn from_seed(seed: u64) -> Case {
        let mut rng = Rng(seed);
        let n = 3 + rng.below(5) as usize;
        // Cycles twice as often as the others: `Optimize` removes λ
        // atoms there, which makes supplying children.
        let edges: Vec<(usize, usize)> = match [0, 1, 1, 2][rng.below(4) as usize] {
            0 => (0..n).map(|i| (i, i + 1)).collect(),
            1 => (0..n).map(|i| (i, (i + 1) % n)).collect(),
            _ => {
                // Each atom after the first joins a variable seen before,
                // so the reference's body-order fold never crosses; with
                // no more variables than atoms, some atom closes a cycle.
                let vars = 3 + rng.below(n as u64 - 2) as usize;
                let mut seen = 1;
                (0..n)
                    .map(|_| {
                        let old = rng.below(seen as u64) as usize;
                        let fresh = seen < vars && (seen == 1 || rng.below(2) > 0);
                        let new = if fresh {
                            seen += 1;
                            seen - 1
                        } else {
                            (old + 1 + rng.below(seen as u64 - 1) as usize) % seen
                        };
                        (old, new)
                    })
                    .collect()
            }
        };
        let span = 6 + rng.below(10) as i64;
        let mut db = Database::new();
        let mut b = CqBuilder::new();
        for (i, &(l, r)) in edges.iter().enumerate() {
            let mut rel = Relation::new(Schema::new(&[
                ("l", ColumnType::Int),
                ("r", ColumnType::Int),
            ]));
            for _ in 0..4 + rng.below(20) {
                let row = [rng.below(span as u64), rng.below(span as u64)];
                rel.push_row(row.map(|v| Value::Int(v as i64)).to_vec())
                    .unwrap();
            }
            let table = format!("t{i}");
            db.insert_table(&table, rel);
            let (l, r) = (format!("X{l}"), format!("X{r}"));
            b = b.atom(&table, &table, &[("l", &l), ("r", &r)]);
        }
        let mut vars: Vec<usize> = edges.iter().flat_map(|&(l, r)| [l, r]).collect();
        vars.sort_unstable();
        vars.dedup();
        let mut out: Vec<usize> = Vec::new();
        for _ in 0..1 + rng.below(3) {
            let v = vars[rng.below(vars.len() as u64) as usize];
            if !out.contains(&v) {
                out.push(v);
                b = b.out_var(&format!("X{v}"));
            }
        }
        let q = b.build();
        let run_optimize = rng.below(8) > 0;
        let options = |max_width| QhdOptions {
            max_width,
            run_optimize,
        };
        let plan = if rng.below(2) == 0 {
            let decomp = |w| q_hypertree_decomp(&q, &options(w), &StructuralCost);
            decomp(4).or_else(|_| decomp(n))
        } else {
            let stats = analyze(&db);
            let cost = StatsDecompCost::new(&stats, &q).with_assume_optimize(run_optimize);
            let decomp = |w| q_hypertree_decomp(&q, &options(w), &cost);
            decomp(4).or_else(|_| decomp(n))
        }
        .expect("a vertex holding every atom is a q-HD");
        Case { seed, db, q, plan }
    }

    /// The plan's (vertex, child) edges: a child supplies when it shares
    /// a χ(p) variable that no atom of `assigned(p) ∪ λ(p)` carries, so
    /// `P′(p)` lacks it; else it is a filter.
    fn shape(&self) -> Shape {
        let (tree, h) = (&self.plan.tree, &self.plan.cq_hypergraph.hypergraph);
        let mut shape = Shape::default();
        for p in tree.postorder() {
            let node = tree.node(p);
            let atoms = node.assigned.union(&node.lambda);
            shape.vertex_joins |= atoms.len() > 1;
            let mut own = VarSet::new();
            for e in atoms.iter() {
                own.union_with(h.edge_vars(e));
            }
            for &c in &node.children {
                let shared = tree.node(c).chi.intersection(&node.chi);
                if shared.is_subset(&own) {
                    shape.filters += 1;
                } else {
                    shape.supplying += 1;
                }
            }
        }
        shape
    }

    /// q-HD evaluation on `budget`, and the hash tables it built and the
    /// spill partitions it wrote.
    fn run(&self, mut budget: Budget) -> (Result<VRelation, EvalError>, u64, u64) {
        let out = evaluate_qhd(&self.db, &self.q, &self.plan, &mut budget);
        let builds = budget.join_stats().hash_builds();
        (out, builds, budget.spill_stats().partitions())
    }
}

fn arb_case() -> impl Strategy<Value = Case> {
    any::<u64>().prop_map(Case::from_seed)
}

/// Tuples one run may charge.
const CAP: u64 = 300_000;

fn capped() -> Budget {
    Budget::unlimited().with_max_tuples(CAP)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Filters ≡ joins: in memory, and again spilling every join that
    /// has a key, the reference's answer (unless the run outgrows the
    /// cap).
    #[test]
    fn filters_and_joins_keep_the_answer(case in arb_case()) {
        let want = reference(&case.db, &case.q);
        for mode in [SpillMode::Auto, SpillMode::Force] {
            match case.run(capped().with_spill_mode(mode)).0 {
                Ok(got) => prop_assert!(is_reference(&got, &want), "seed {} {:?}", case.seed, mode),
                Err(e) => prop_assert!(
                    matches!(e, EvalError::TupleBudgetExceeded { .. }),
                    "seed {}: {:?}", case.seed, e
                ),
            }
        }
    }

    /// Under a byte limit, forced spill or not: the reference's answer or
    /// a clean memory/spill error. A filter whose key set is denied joins
    /// instead, and that join may spill.
    #[test]
    fn byte_limits_keep_the_answer(case in arb_case(), log2 in 8u32..18, force in any::<bool>()) {
        let want = reference(&case.db, &case.q);
        let mode = if force { SpillMode::Force } else { SpillMode::Auto };
        match case.run(capped().with_mem_limit(1 << log2).with_spill_mode(mode)).0 {
            Ok(got) => prop_assert!(is_reference(&got, &want), "seed {} limit 2^{}", case.seed, log2),
            Err(e) => prop_assert!(
                matches!(e, EvalError::MemoryExceeded { .. } | EvalError::SpillIo(_)
                    | EvalError::TupleBudgetExceeded { .. }),
                "seed {}: {:?}", case.seed, e
            ),
        }
    }
}

/// Across the generated plans, both edge kinds occur: filters (applied as
/// semijoins) and supplying children (still joined). And a byte limit
/// that denies a filter its key set makes it join — one more hash table
/// than in memory — while the query still answers; on plans with no other
/// join, forced spill at that limit shows the fallback join spilling.
/// (The counts are half or less of what seeds 0–199 give.)
#[test]
fn both_edge_kinds_and_the_spill_fallback_occur() {
    let (mut filters, mut supplying) = (0, 0);
    let (mut fell_back, mut spilled) = (0, 0);
    for seed in 0..200 {
        let case = Case::from_seed(seed);
        let shape = case.shape();
        filters += shape.filters;
        supplying += shape.supplying;
        let want = reference(&case.db, &case.q);
        let answers =
            |out: Result<VRelation, EvalError>| out.is_ok_and(|got| is_reference(&got, &want));
        let (out, builds, _) = case.run(capped());
        assert!(answers(out), "seed {seed}");
        if shape.filters == 0 {
            continue;
        }
        // Every other join of the plan could spill too.
        let only_fallbacks = shape.supplying == 0 && !shape.vertex_joins;
        let mut back = false;
        // Limits 2^8 to 2^16 bytes, an eighth of an octave apart. Where a
        // filter joins, forced spill makes that join write partitions.
        let spill = (64..128)
            .map(|k| 1u64 << (k / 8) | (k % 8) << (k / 8 - 3))
            .any(|limit| {
                let run = |mode| case.run(capped().with_mem_limit(limit).with_spill_mode(mode));
                let (out, capped_builds, _) = run(SpillMode::Auto);
                let joined = capped_builds > builds && answers(out);
                back |= joined;
                joined && only_fallbacks && {
                    let (out, _, partitions) = run(SpillMode::Force);
                    partitions > 0 && answers(out)
                }
            });
        fell_back += back as usize;
        spilled += spill as usize;
    }
    assert!(filters >= 100, "only {filters} filter edges in 200 plans");
    assert!(
        supplying >= 10,
        "only {supplying} supplying edges in 200 plans"
    );
    assert!(
        fell_back >= 16,
        "a denied filter joined in only {fell_back} cases"
    );
    assert!(
        spilled >= 4,
        "a denied filter's join spilled in only {spilled} cases"
    );
}
