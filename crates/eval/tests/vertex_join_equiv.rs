//! Equivalence suite for the late-materialized `P′` join
//! (`cops::join_vertex`, DESIGN.md §3.4).
//!
//! The vertex join carries one position list per joined atom and gathers
//! each surviving column once, at the end. Nothing about that may be
//! visible: over random 2–5-atom vertices — constant filters, repeated
//! variables, a key column (also shared between atoms), cross products,
//! empty sides, and NULL / `Str` / `Float` / `Date` keys — it must give
//! what a fold of the public kernels gives: `scan_atom_c` per atom,
//! `cops::natural_join` in the greedy order, `cops::project_onto_available`
//! at the end. Same columns, same rows in the same order, same
//! `Budget::charged()` and hash builds — also when a tuple limit stops
//! both, and under `SpillMode::Force`; under random byte limits the two
//! may spill at different joins, so there only the answers must agree.
//!
//! Case count is `HTQO_CHAOS_CASES` (default 200).

use htqo_cq::{Atom, AtomId, CmpOp, Filter, Literal};
use htqo_engine::cops;
use htqo_engine::crel::{CRel, Name};
use htqo_engine::error::{Budget, EvalError, SpillMode};
use htqo_engine::relation::Relation;
use htqo_engine::scan::{atom_names, scan_atom_c, select_atom};
use htqo_engine::schema::{ColumnType, Database, Schema};
use htqo_engine::value::Value;
use proptest::prelude::*;

fn cases() -> u32 {
    std::env::var("HTQO_CHAOS_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(200)
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

const TYPES: [ColumnType; 4] = [
    ColumnType::Int,
    ColumnType::Float,
    ColumnType::Str,
    ColumnType::Date,
];

const FLOATS: [f64; 6] = [0.0, -0.0, 1.5, f64::NAN, -3.25, 2.0];

/// Every operator, the ones that keep most rows twice.
const OPS: [CmpOp; 9] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
    CmpOp::Ge,
];

/// A non-NULL literal of type `ty` from a domain of `span` values.
fn literal(ty: ColumnType, span: u64, rng: &mut Rng) -> Literal {
    match ty {
        ColumnType::Int => Literal::Int(rng.below(span) as i64),
        ColumnType::Float => Literal::Float(FLOATS[rng.below(span.min(6)) as usize]),
        ColumnType::Str => Literal::Str(format!("s{}", rng.below(span))),
        ColumnType::Date => Literal::Date(9_000 + rng.below(span) as i32),
    }
}

/// One vertex: its atoms (each over its own table) with their filters,
/// and χ — some of the atoms' variables, in random order, plus one no
/// atom carries.
struct Case {
    seed: u64,
    db: Database,
    atoms: Vec<(Atom, Vec<Filter>)>,
    chi: Vec<Name>,
}

impl Case {
    fn from_seed(seed: u64) -> Case {
        let mut rng = Rng(seed);
        let n_vars = 2 + rng.below(4);
        let var_ty: Vec<ColumnType> = (0..n_vars).map(|_| rng.pick(&TYPES)).collect();
        // Few values: duplicates, so joins fan out.
        let span = 2 + rng.below(5);
        let mut db = Database::new();
        let mut atoms = Vec::new();
        let mut vars: Vec<String> = vec!["W".into()];
        for a in 0..2 + rng.below(4) as usize {
            // 1–3 bound columns (a variable drawn twice is a repeated
            // variable), one filter-only column and the key `id`, the
            // row's position.
            let bound: Vec<u64> = (0..1 + rng.below(3)).map(|_| rng.below(n_vars)).collect();
            let mut cols: Vec<(String, ColumnType)> = (bound.iter().enumerate())
                .map(|(j, &v)| (format!("c{j}"), var_ty[v as usize]))
                .collect();
            cols.push(("f".into(), rng.pick(&TYPES)));
            let schema: Vec<(&str, ColumnType)> = (cols.iter())
                .map(|(c, t)| (c.as_str(), *t))
                .chain([("id", ColumnType::Int)])
                .collect();
            let mut rel = Relation::new(Schema::new(&schema));
            let rows = match rng.below(32) {
                0 => 0,
                1..=4 => 200 + rng.below(300),
                _ => 1 + rng.below(40),
            };
            let nulls = rng.below(3) == 0;
            for r in 0..rows {
                let mut row: Vec<Value> = cols
                    .iter()
                    .map(|&(_, ty)| {
                        if nulls && rng.below(8) == 0 {
                            Value::Null
                        } else {
                            Value::from(&literal(ty, span, &mut rng))
                        }
                    })
                    .collect();
                row.push(Value::Int(r as i64));
                rel.push_row(row).unwrap();
            }
            let table = format!("t{a}");
            db.insert_table(&table, rel);

            let mut args: Vec<(String, String)> = (bound.iter().enumerate())
                .map(|(j, v)| (format!("c{j}"), format!("V{v}")))
                .collect();
            if rng.below(3) == 0 {
                // A key of its own, or one shared with another atom's.
                let rid = if rng.below(2) == 0 {
                    "RID".into()
                } else {
                    format!("R{a}")
                };
                args.insert(
                    rng.below(args.len() as u64 + 1) as usize,
                    ("id".into(), rid),
                );
            }
            let filters = (0..rng.pick(&[0, 0, 0, 0, 1, 1, 1, 2]))
                .map(|_| {
                    let (column, ty) = cols[rng.below(cols.len() as u64) as usize].clone();
                    Filter {
                        atom: AtomId(a as u32),
                        column,
                        op: rng.pick(&OPS),
                        value: literal(ty, span, &mut rng),
                    }
                })
                .collect();
            for (_, v) in &args {
                if !vars.contains(v) {
                    vars.push(v.clone());
                }
            }
            let atom = Atom {
                relation: table.clone(),
                alias: table,
                args,
            };
            atoms.push((atom, filters));
        }
        let mut chi = Vec::new();
        while !vars.is_empty() {
            let v = vars.swap_remove(rng.below(vars.len() as u64) as usize);
            if rng.below(3) != 0 {
                chi.push(v.into());
            }
        }
        Case {
            seed,
            db,
            atoms,
            chi,
        }
    }

    /// The late-materialized join.
    fn vertex(&self, budget: &mut Budget) -> Result<CRel, EvalError> {
        let mut selected = Vec::new();
        for (atom, filters) in &self.atoms {
            let vars = atom_names(atom);
            selected.push(select_atom(
                &self.db,
                atom,
                vars,
                &refs(filters),
                false,
                budget,
            )?);
        }
        cops::join_vertex(selected, &self.chi, budget)
    }

    /// The reference: scan every atom, fold `natural_join` in the greedy
    /// order, project onto what χ the result carries.
    fn reference(&self, budget: &mut Budget) -> Result<CRel, EvalError> {
        let mut rels = Vec::new();
        for (atom, filters) in &self.atoms {
            rels.push(scan_atom_c(&self.db, atom, &refs(filters), budget)?);
        }
        let Some(first) = smallest(&rels, |_| true) else {
            return Ok(CRel::neutral());
        };
        let mut acc = rels.swap_remove(first);
        while !rels.is_empty() {
            let joins = |r: &CRel| r.cols().iter().any(|c| acc.col_index(c).is_some());
            let i = smallest(&rels, joins).or_else(|| smallest(&rels, |_| true));
            acc = cops::natural_join(&acc, &rels.swap_remove(i.unwrap()), budget)?;
        }
        cops::project_onto_available(acc, &self.chi, budget)
    }
}

fn refs(filters: &[Filter]) -> Vec<&Filter> {
    filters.iter().collect()
}

/// The first of the smallest relations that pass `ok`.
fn smallest(rels: &[CRel], ok: impl Fn(&CRel) -> bool) -> Option<usize> {
    let passing = rels.iter().enumerate().filter(|(_, r)| ok(r));
    passing.min_by_key(|(_, r)| r.len()).map(|(i, _)| i)
}

fn arb_case() -> impl Strategy<Value = Case> {
    any::<u64>().prop_map(Case::from_seed)
}

/// Rows as printed cells: `-0.0` and NaN stay distinguishable from `0.0`.
fn rows(r: &CRel) -> Vec<String> {
    r.to_vrel()
        .rows()
        .iter()
        .map(|row| format!("{row:?}"))
        .collect()
}

/// Tuples one run may charge: the generator draws near cross products of
/// five tables of up to 500 rows, which no run should materialize.
const CAP: u64 = 300_000;

fn capped() -> Budget {
    Budget::unlimited().with_max_tuples(CAP)
}

/// Columns and rows of an answer, or its error, as one comparable value.
type Outcome = Result<(Vec<Name>, Vec<String>), EvalError>;

/// Runs both sides, each on a budget of its own from `budget`, and
/// returns their outcomes with the tuples each charged and the hash
/// builds each counted.
fn both(case: &Case, budget: impl Fn() -> Budget) -> [(Outcome, u64, u64); 2] {
    [Case::vertex, Case::reference].map(|run| {
        let mut b = budget();
        let out = run(case, &mut b).map(|r| (r.cols().to_vec(), rows(&r)));
        (out, b.charged(), b.join_stats().hash_builds())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// In memory, and again spilling every join that has a key: the same
    /// columns, rows in the same order (or the same error, where the run
    /// outgrows the cap), the same tuples and hash builds.
    #[test]
    fn same_rows_order_columns_and_charges(case in arb_case()) {
        for mode in [SpillMode::Auto, SpillMode::Force] {
            let [got, want] = both(&case, || capped().with_spill_mode(mode));
            prop_assert_eq!(got, want, "seed {} {:?}", case.seed, mode);
        }
    }

    /// A tuple limit anywhere from nothing to everything stops both at
    /// the same charge with the same error.
    #[test]
    fn a_tuple_limit_stops_both_alike(case in arb_case(), cut in 0u64..1000) {
        let mut full = capped();
        let _ = case.vertex(&mut full);
        let limit = full.charged().min(CAP) * cut / 1000;
        let [got, want] = both(&case, || Budget::unlimited().with_max_tuples(limit));
        prop_assert_eq!(got, want, "seed {} limit {}", case.seed, limit);
    }

    /// Under a byte limit, forced spill or not, each side answers with the
    /// unlimited rows or a clean memory/spill error. Their lists and
    /// columns differ in size, so they may spill or stop at different
    /// joins; spilled rows come in partition order, which also decides
    /// which of two equal keys (`0.0`, `-0.0`) a projection keeps:
    /// answers are compared as sets.
    #[test]
    fn byte_limits_keep_the_answer(case in arb_case(), log2 in 8u32..18, force in any::<bool>()) {
        let Ok(want) = case.reference(&mut capped()) else {
            return Ok(());
        };
        let want = want.to_vrel();
        let mode = if force { SpillMode::Force } else { SpillMode::Auto };
        for run in [Case::vertex, Case::reference] {
            match run(&case, &mut capped().with_mem_limit(1 << log2).with_spill_mode(mode)) {
                Ok(got) => prop_assert!(got.to_vrel().set_eq(&want), "seed {} limit 2^{}", case.seed, log2),
                Err(e) => prop_assert!(
                    matches!(e, EvalError::MemoryExceeded { .. } | EvalError::SpillIo(_)),
                    "seed {}: {:?}", case.seed, e
                ),
            }
        }
    }
}

/// The generator reaches what the suite is for: cross products, keys
/// shared between atoms, empty inputs, projections that drop columns,
/// joins that spill — and most cases finish inside the cap.
#[test]
fn the_generator_covers_the_shapes() {
    let mut seen = [0usize; 6];
    for seed in 0..400 {
        let case = Case::from_seed(seed);
        let vars: Vec<Vec<&String>> = (case.atoms.iter())
            .map(|(a, _)| a.args.iter().map(|(_, v)| v).collect())
            .collect();
        let alone = |v: &Vec<&String>| {
            vars.iter()
                .filter(|w| w.iter().any(|x| v.contains(x)))
                .count()
                == 1
        };
        let mut force = capped().with_spill_mode(SpillMode::Force);
        let answered = case.vertex(&mut force).is_ok();
        let empty = (case.atoms.iter()).any(|(a, f)| {
            select_atom(&case.db, a, atom_names(a), &refs(f), false, &mut capped())
                .unwrap()
                .is_empty()
        });
        let mut carried: Vec<&String> = vars.concat();
        carried.sort();
        carried.dedup();
        let shapes = [
            vars.iter().any(alone),
            vars.iter()
                .filter(|v| v.contains(&&"RID".to_string()))
                .count()
                > 1,
            empty,
            carried
                .iter()
                .any(|v| !case.chi.iter().any(|c| **c == ***v)),
            force.spill_stats().partitions() > 0,
            answered,
        ];
        for (n, hit) in seen.iter_mut().zip(shapes) {
            *n += hit as usize;
        }
    }
    let wanted = [
        ("cross products", 10),
        ("shared keys", 10),
        ("empty inputs", 10),
        ("dropped columns", 10),
        ("spilled joins", 10),
        ("answers within the cap", 300),
    ];
    for ((what, least), n) in wanted.into_iter().zip(seen) {
        assert!(n >= least, "only {n} of 400 cases with {what}");
    }
}
