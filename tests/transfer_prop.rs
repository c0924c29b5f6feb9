//! Property suite for the semijoin transfer into `P′` (`cops::narrow`,
//! DESIGN.md §3.4): vertices are joined children first, and each atom is
//! filtered by the finished `P′` relation of every child at least four
//! times smaller than it. The filter may remove only rows that no answer
//! extends. On random queries with selective children — empty children,
//! NULL keys, `Str`, `Date` and `Float` keys, atoms joined on a table's
//! key column —
//! q-HD evaluation must answer what the nested-loop reference answers: in
//! memory, under `SpillMode::Force`, under byte caps (where a denied
//! reservation skips the filter) and under tuple limits.
//! `the_transfer_fires_on_the_generated_shapes` proves, through
//! `JoinStats::transfer_removed`, that the filter runs on these cases.
//!
//! Case count is `HTQO_CHAOS_CASES` (default 64).

mod support;

use htqo::prelude::*;
use htqo_cq::{CmpOp, Literal};
use htqo_engine::error::SpillMode;
use htqo_engine::schema::ColumnType;
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

    fn pick<T: Copy>(&mut self, of: &[T]) -> T {
        of[self.below(of.len() as u64) as usize]
    }
}

/// Key types, `Int` twice as often as the others.
const TYPES: [ColumnType; 5] = [
    ColumnType::Int,
    ColumnType::Int,
    ColumnType::Str,
    ColumnType::Date,
    ColumnType::Float,
];

/// A non-NULL value of type `ty` from a domain of `span` values.
fn value(ty: ColumnType, span: u64, rng: &mut Rng) -> Value {
    let k = rng.below(span);
    match ty {
        ColumnType::Int => Value::Int(k as i64),
        ColumnType::Float => Value::Float([0.0, -0.0, 1.5, f64::NAN, -3.25, 2.0][k as usize % 6]),
        ColumnType::Str => Value::str(&format!("k{k}")),
        ColumnType::Date => Value::Date(9_000 + k as i32),
    }
}

/// What a case contains, for the coverage test.
#[derive(Default)]
struct Features {
    /// Variables of these types join two atoms.
    str_key: bool,
    date_key: bool,
    float_key: bool,
    /// Some table holds NULLs in a joined column.
    nulls: bool,
    /// Two atoms over one table are joined on its key column `id`.
    shared_key: bool,
    /// Some atom selects no row.
    empty: bool,
}

/// One query over its own database, and its decomposition.
struct Case {
    seed: u64,
    db: Database,
    q: ConjunctiveQuery,
    plan: QhdPlan,
    features: Features,
}

/// One atom before the query is built: table, alias, the variables its
/// columns `c0, c1, …` bind, `(column, variable)` arguments and an
/// optional `f < k` filter.
struct AtomSpec {
    table: String,
    alias: String,
    bound: Vec<u64>,
    args: Vec<(String, String)>,
    filter: Option<i64>,
}

impl Case {
    fn from_seed(seed: u64) -> Case {
        let mut rng = Rng(seed);
        let mut features = Features::default();
        let n_vars = 3 + rng.below(3);
        let var_ty: Vec<ColumnType> = (0..n_vars).map(|_| rng.pick(&TYPES)).collect();
        let span = 6 + rng.below(20);
        let mut db = Database::new();
        let mut specs: Vec<AtomSpec> = Vec::new();
        let mut used: Vec<u64> = Vec::new();
        for a in 0..2 + rng.below(4) {
            // Hubs are large; the other atoms small, often filtered, now
            // and then empty: a small child steers a large parent.
            let hub = a == 0 || rng.below(4) == 0;
            let rows = if hub {
                60 + rng.below(140)
            } else if rng.below(6) == 0 {
                0
            } else {
                1 + rng.below(14)
            };
            // 1–3 bound columns; after the first atom, the first of them
            // is a variable seen before, so the body order joins on a key.
            // A third of the small atoms bind two variables of the first
            // hub: keys of two columns.
            let bound: Vec<u64> = match specs.first() {
                Some(first) if !hub && first.bound.len() > 1 && rng.below(3) == 0 => {
                    vec![first.bound[1], first.bound[0]]
                }
                _ => (0..1 + rng.below(3))
                    .map(|j| match j {
                        0 if !used.is_empty() => rng.pick(&used),
                        _ => rng.below(n_vars),
                    })
                    .collect(),
            };
            let nulls = rng.below(4) == 0;
            let mut schema: Vec<(String, ColumnType)> = (bound.iter().enumerate())
                .map(|(j, &v)| (format!("c{j}"), var_ty[v as usize]))
                .collect();
            schema.push(("f".into(), ColumnType::Int));
            // The key `id`, the row's position, is the last column.
            let cols: Vec<(&str, ColumnType)> = (schema.iter())
                .map(|(c, t)| (c.as_str(), *t))
                .chain([("id", ColumnType::Int)])
                .collect();
            let mut rel = Relation::new(Schema::new(&cols));
            for r in 0..rows {
                let mut row: Vec<Value> = (schema.iter())
                    .map(|&(_, ty)| match nulls && rng.below(6) == 0 {
                        true => Value::Null,
                        false => value(ty, span, &mut rng),
                    })
                    .collect();
                *row.last_mut().unwrap() = Value::Int(rng.below(10) as i64);
                row.push(Value::Int(r as i64));
                rel.push_row(row).unwrap();
            }
            features.nulls |= nulls && rows > 0;
            let table = format!("t{a}");
            db.insert_table(&table, rel);
            let mut args: Vec<(String, String)> = (bound.iter().enumerate())
                .map(|(j, v)| (format!("c{j}"), format!("V{v}")))
                .collect();
            if rng.below(5) == 0 {
                args.push(("id".into(), format!("R{a}")));
            }
            let filter = (!hub && rng.below(2) == 0).then(|| 1 + rng.below(6) as i64);
            features.empty |= rows == 0;
            for &v in &bound {
                if used.contains(&v) {
                    match var_ty[v as usize] {
                        ColumnType::Str => features.str_key = true,
                        ColumnType::Date => features.date_key = true,
                        ColumnType::Float => features.float_key = true,
                        ColumnType::Int => {}
                    }
                } else {
                    used.push(v);
                }
            }
            specs.push(AtomSpec {
                alias: table.clone(),
                table,
                bound,
                args,
                filter,
            });
        }
        if rng.below(3) == 0 {
            // The first table again, joined to itself on its key: the
            // second atom binds another variable to the same row.
            specs[0].args.push(("id".into(), "RID".into()));
            let v = rng.below(n_vars);
            let first_ty = var_ty[specs[0].bound[0] as usize];
            let column = if var_ty[v as usize] == first_ty {
                "c0"
            } else {
                "f"
            };
            let var = if column == "f" {
                "F".to_string()
            } else {
                format!("V{v}")
            };
            specs.push(AtomSpec {
                table: "t0".into(),
                alias: "t0b".into(),
                bound: Vec::new(),
                args: vec![("id".into(), "RID".into()), (column.into(), var)],
                filter: Some(1 + rng.below(4) as i64),
            });
            features.shared_key = true;
        }

        let mut b = CqBuilder::new();
        for s in &specs {
            let args: Vec<(&str, &str)> = (s.args.iter())
                .map(|(c, v)| (c.as_str(), v.as_str()))
                .collect();
            b = b.atom(&s.table, &s.alias, &args);
        }
        for (i, s) in specs.iter().enumerate() {
            if let Some(k) = s.filter {
                b = b.filter(i, "f", CmpOp::Lt, Literal::Int(k));
            }
        }
        // The output lies in the first hub, which puts it at the root.
        let first = &specs[0].args;
        b = b.out_var(&first[0].1);
        if rng.below(2) == 0 {
            let (_, v) = &first[rng.below(first.len() as u64) as usize];
            if *v != first[0].1 {
                b = b.out_var(v);
            }
        }
        let q = b.build();
        let plan = q_hypertree_decomp(&q, &QhdOptions::default(), &StructuralCost)
            .expect("width 4 suffices for ≤ 6 atoms");
        let mut probe = Budget::unlimited();
        features.empty |= q.atom_ids().any(|a| {
            htqo_engine::scan::scan_query_atom_c(&db, &q, a, &mut probe)
                .unwrap()
                .is_empty()
        });
        Case {
            seed,
            db,
            q,
            plan,
            features,
        }
    }

    /// q-HD evaluation on `budget`, and the rows the transfer removed.
    fn run(&self, mut budget: Budget) -> (Result<VRelation, EvalError>, u64) {
        let out = evaluate_qhd(&self.db, &self.q, &self.plan, &mut budget);
        (out, budget.join_stats().transfer_removed())
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

    /// In memory, and again spilling every join that has a key: the
    /// reference's answer (unless the run outgrows the cap).
    #[test]
    fn the_transfer_keeps_the_answer(case in arb_case()) {
        let want = reference(&case.db, &case.q);
        for mode in [SpillMode::Auto, SpillMode::Force] {
            match case.run(capped().with_spill_mode(mode)).0 {
                Ok(got) => prop_assert!(is_reference(&got, &want), "seed {} {:?}", case.seed, mode),
                Err(e) => prop_assert!(e.is_resource_limit(), "seed {}: {:?}", case.seed, e),
            }
        }
    }

    /// Under a byte cap, forced spill or not: the reference's answer or a
    /// clean memory/spill error. The transfer never fails a query: where
    /// its reservation is denied, the atoms keep their rows.
    #[test]
    fn byte_caps_keep_the_answer(case in arb_case(), log2 in 8u32..20, force in any::<bool>()) {
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

    /// A tuple limit anywhere from nothing to everything: the reference's
    /// answer or `TupleBudgetExceeded`.
    #[test]
    fn tuple_limits_keep_the_answer(case in arb_case(), cut in 0u64..1000) {
        let mut full = capped();
        let _ = evaluate_qhd(&case.db, &case.q, &case.plan, &mut full);
        let limit = full.charged().min(CAP) * cut / 1000;
        match case.run(Budget::unlimited().with_max_tuples(limit)).0 {
            Ok(got) => prop_assert!(is_reference(&got, &reference(&case.db, &case.q)),
                "seed {} limit {}", case.seed, limit),
            Err(e) => prop_assert!(
                matches!(e, EvalError::TupleBudgetExceeded { .. }),
                "seed {} limit {}: {:?}", case.seed, limit, e
            ),
        }
    }
}

/// The transfer runs on what the suite generates — with each key type,
/// NULL keys, row-id joins and empty atoms among the cases where it
/// removes rows — and under a byte cap that denies its reservation it
/// removes nothing while the query still answers.
#[test]
fn the_transfer_fires_on_the_generated_shapes() {
    let mut seen = [0usize; 8];
    for seed in 0..300 {
        let case = Case::from_seed(seed);
        let (out, removed) = case.run(capped());
        if out.is_err() || removed == 0 {
            continue;
        }
        let skipped = (8..14).map(|log2| 1u64 << log2).any(|cap| {
            let (out, removed) = case.run(capped().with_mem_limit(cap));
            removed == 0 && out.is_ok_and(|got| is_reference(&got, &reference(&case.db, &case.q)))
        });
        let f = &case.features;
        let hits = [
            true,
            f.str_key,
            f.date_key,
            f.float_key,
            f.nulls,
            f.shared_key,
            f.empty,
            skipped,
        ];
        for (n, hit) in seen.iter_mut().zip(hits) {
            *n += hit as usize;
        }
    }
    let wanted = [
        ("rows removed", 60),
        ("Str keys", 5),
        ("Date keys", 5),
        ("Float keys", 5),
        ("NULLs", 5),
        ("row-id joins", 5),
        ("empty atoms", 5),
        ("a denied reservation skipped", 5),
    ];
    for ((what, least), n) in wanted.into_iter().zip(seen) {
        assert!(n >= least, "only {n} of 300 cases with {what}");
    }
}
