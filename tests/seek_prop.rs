//! Property suite for the index seek inside the vertex join
//! (`cops::join_vertex`, DESIGN.md §3.13): an input read from an indexed
//! column is joined by probing the index, once per distinct accumulator
//! key, when the accumulator is `SEEK_MARGIN` times smaller than the
//! input's selection.
//!
//! Each case is one vertex over a paged catalog — a small probe atom and a
//! large fact atom whose key column carries a B-tree, read back through a
//! pool of one to sixteen pages — with what the old per-row kernel never
//! saw: a filter on the fact atom, a child relation narrowing it
//! (`cops::narrow`), two shared variables, the fact atom's `__rowid`, `Str`
//! and `Date` keys and NULL keys. The join must answer what the
//! nested-loop reference answers, seek exactly when the rule says so,
//! and then charge the probe's scan and one tuple per output row, nothing
//! for the fact table; `evaluate_qhd` must answer the reference over
//! the indexed catalog and over its tables without indexes.
//! `the_seek_fires_on_a_share_of_the_cases`
//! reports the share of cases that seek and requires every feature among
//! them.
//!
//! Case count is `HTQO_CHAOS_CASES` (default 48).

mod support;

use htqo::prelude::*;
use htqo_cq::isolator::ROWID_COLUMN;
use htqo_cq::{AtomId, CmpOp, Literal};
use htqo_engine::crel::CRel;
use htqo_engine::index::SEEK_MARGIN;
use htqo_engine::scan::{scan_query_atom_c, select_query_atom};
use htqo_engine::schema::ColumnType;
use htqo_engine::vrel::nested_loop_join;
use htqo_engine::{cops, Row};
use htqo_eval::evaluate_qhd;
use htqo_storage::{StorageDb, PAGE_SIZE};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use support::{is_reference, reference};

fn cases() -> u32 {
    std::env::var("HTQO_CHAOS_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(48)
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

    fn one_in(&mut self, n: u64) -> bool {
        self.below(n) == 0
    }
}

/// A store directory of its own, removed with the case.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Scratch {
        static N: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "htqo-seek-prop-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::remove_dir_all(&dir).ok();
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// A non-NULL key of type `ty` from a domain of `span` values.
fn key(ty: ColumnType, span: u64, rng: &mut Rng) -> Value {
    let k = rng.below(span);
    match ty {
        ColumnType::Str => Value::str(&format!("k{k}")),
        ColumnType::Date => Value::Date(9_000 + k as i32),
        _ => Value::Int(k as i64),
    }
}

/// What a case contains, for the coverage test.
#[derive(Default)]
struct Features {
    fact_filter: bool,
    child: bool,
    two_keys: bool,
    rowid: bool,
    str_key: bool,
    date_key: bool,
    nulls: bool,
    one_page_pool: bool,
}

/// One vertex `probe ⋈ fact` over a paged catalog, and the child that
/// narrows it.
struct Case {
    seed: u64,
    db: Database,
    q: ConjunctiveQuery,
    /// Every variable of the vertex.
    chi: Vec<htqo_engine::Name>,
    /// A relation over `K` the atoms are narrowed by.
    child: Option<CRel>,
    features: Features,
    _dir: Scratch,
}

impl Case {
    fn from_seed(seed: u64) -> Case {
        let mut rng = Rng(seed);
        let ty = [ColumnType::Int, ColumnType::Str, ColumnType::Date][rng.below(3) as usize];
        let span = 4 + rng.below(16);
        let nulls = rng.one_in(4);
        let two_keys = rng.one_in(3);
        // Columns `c0` (key `K`), `c1` (key `K2` when two are shared),
        // `g` (filtered) and `p` (the row's own number).
        let table = |rows: u64, rng: &mut Rng| {
            let mut rel = Relation::new(Schema::new(&[
                ("c0", ty),
                ("c1", ColumnType::Int),
                ("g", ColumnType::Int),
                ("p", ColumnType::Int),
            ]));
            for i in 0..rows {
                let cell = |ty, rng: &mut Rng| match nulls && rng.one_in(8) {
                    true => Value::Null,
                    false => key(ty, span, rng),
                };
                let row = vec![
                    cell(ty, rng),
                    cell(ColumnType::Int, rng),
                    Value::Int(rng.below(10) as i64),
                    Value::Int(i as i64),
                ];
                rel.push_row(row).unwrap();
            }
            rel
        };
        let probe = table(1 + rng.below(5), &mut rng);
        let fact = table(200 + rng.below(3 * SEEK_MARGIN as u64), &mut rng);
        let dir = Scratch::new();
        let storage = StorageDb::open(&dir.0).unwrap();
        storage.ingest("probe", &probe, &[]).unwrap();
        let indexed: &[&str] = if rng.one_in(2) {
            &["c0", "c1"]
        } else {
            &["c0"]
        };
        storage.ingest("fact", &fact, indexed).unwrap();
        let pages = if rng.one_in(3) { 1 } else { 2 + rng.below(15) };
        let db = storage
            .load_database(pages * PAGE_SIZE as u64, None)
            .unwrap();

        let second = if two_keys { "K2" } else { "Q" };
        let mut fact_args = vec![("c0", "K"), ("c1", second), ("p", "P")];
        let rowid = rng.one_in(3);
        if rowid {
            fact_args.push((ROWID_COLUMN, "R"));
        }
        let mut b = CqBuilder::new()
            .atom("probe", "probe", &[("c0", "K"), ("c1", "K2"), ("p", "T")])
            .atom("fact", "fact", &fact_args);
        if rng.one_in(3) {
            b = b.filter(0, "g", CmpOp::Lt, Literal::Int(1 + rng.below(9) as i64));
        }
        let fact_filter = rng.one_in(2);
        if fact_filter {
            b = b.filter(1, "g", CmpOp::Lt, Literal::Int(1 + rng.below(9) as i64));
        }
        let mut chi: Vec<htqo_engine::Name> = Vec::new();
        for (_, v) in [("c0", "K"), ("c1", "K2"), ("p", "T")]
            .iter()
            .chain(&fact_args)
        {
            if !chi.iter().any(|c| **c == **v) {
                chi.push((*v).into());
                b = b.out_var(v);
            }
        }
        let q = b.build();

        let child = rng.one_in(3).then(|| {
            let mut keys: Vec<Row> = (0..1 + rng.below(span))
                .map(|_| vec![key(ty, span, &mut rng)].into_boxed_slice())
                .collect();
            if nulls {
                keys.push(vec![Value::Null].into_boxed_slice());
            }
            CRel::from_vrel(&VRelation::from_rows(vec!["K".into()], keys))
        });
        Case {
            seed,
            db,
            q,
            chi,
            features: Features {
                fact_filter,
                child: child.is_some(),
                two_keys,
                rowid,
                str_key: ty == ColumnType::Str,
                date_key: ty == ColumnType::Date,
                nulls,
                one_page_pool: pages == 1,
            },
            child,
            _dir: dir,
        }
    }

    /// The vertex through `join_vertex`, its atoms selected with `seek`
    /// and narrowed by the child: the rows, the tuples charged, the seeks
    /// taken, and whether the rule calls for a seek.
    fn join(&self, seek: bool) -> (VRelation, u64, u64, bool) {
        let mut b = Budget::unlimited();
        let mut selected: Vec<_> = (self.q.atom_ids())
            .map(|a| select_query_atom(&self.db, &self.q, a, seek, &mut b).unwrap())
            .collect();
        if let Some(child) = &self.child {
            cops::narrow(&mut selected, child, |_| true, &mut b);
        }
        let rule = selected[0].len() * SEEK_MARGIN <= selected[1].len();
        let joined = cops::join_vertex(selected, &self.chi, &mut b).unwrap();
        let seeks = b.join_stats().index_seeks();
        (joined.to_vrel(), b.charged(), seeks, rule)
    }

    /// The nested-loop reference of [`Case::join`]: both atoms scanned,
    /// joined with each other and the child, projected onto χ, each row
    /// once, sorted.
    fn reference(&self) -> Vec<Row> {
        let mut b = Budget::unlimited();
        let scan = |a| scan_query_atom_c(&self.db, &self.q, AtomId(a), &mut Budget::unlimited());
        let (probe, fact) = (scan(0).unwrap().to_vrel(), scan(1).unwrap().to_vrel());
        let mut joined = nested_loop_join(&probe, &fact, &mut b).unwrap();
        if let Some(child) = &self.child {
            joined = nested_loop_join(&joined, &child.to_vrel(), &mut b).unwrap();
        }
        let idx: Vec<usize> = (self.chi.iter())
            .map(|v| joined.col_index(v).unwrap())
            .collect();
        let mut rows: Vec<Row> = (joined.rows().iter())
            .map(|r| idx.iter().map(|&i| r[i].clone()).collect())
            .collect();
        rows.sort();
        rows.dedup();
        rows
    }

    /// Tuples the scan of atom `a` charges.
    fn scan_charge(&self, a: u32) -> u64 {
        let mut b = Budget::unlimited();
        scan_query_atom_c(&self.db, &self.q, AtomId(a), &mut b).unwrap();
        b.charged()
    }
}

fn arb_case() -> impl Strategy<Value = Case> {
    any::<u64>().prop_map(Case::from_seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// The seeking join answers the reference, seeks exactly when the
    /// probe's selection is `SEEK_MARGIN` times smaller than the fact's,
    /// and charges what the rule says; the hash-only join answers the same.
    #[test]
    fn the_seek_join_answers_the_reference(case in arb_case()) {
        let want = case.reference();
        let (got, charged, seeks, rule) = case.join(true);
        let chi: Vec<&str> = case.chi.iter().map(|c| &**c).collect();
        prop_assert_eq!(got.cols(), chi);
        prop_assert_eq!(got.sorted_rows(), want.clone(), "seed {}", case.seed);
        prop_assert_eq!(seeks, u64::from(rule), "seed {}", case.seed);
        let scans = case.scan_charge(0) + if rule { 0 } else { case.scan_charge(1) };
        prop_assert_eq!(charged, scans + got.len() as u64, "seed {}", case.seed);

        let (hashed, hash_charged, hash_seeks, _) = case.join(false);
        prop_assert_eq!(hashed.sorted_rows(), want, "seed {}", case.seed);
        prop_assert_eq!(hash_seeks, 0);
        prop_assert_eq!(hash_charged, case.scan_charge(0) + case.scan_charge(1) + got.len() as u64);
    }

    /// Through the evaluator, over the indexed catalog and over the same
    /// tables without indexes: the reference's answer.
    #[test]
    fn qhd_answers_the_reference_with_and_without_seeks(case in arb_case()) {
        let plan = q_hypertree_decomp(&case.q, &QhdOptions::default(), &StructuralCost).unwrap();
        let want = reference(&case.db, &case.q);
        let mut plain = Database::new();
        for (name, rel) in case.db.tables() {
            plain.insert_table(name, rel.clone());
        }
        for (db, indexed) in [(&case.db, true), (&plain, false)] {
            let got = evaluate_qhd(db, &case.q, &plan, &mut Budget::unlimited())
                .unwrap();
            prop_assert!(is_reference(&got, &want), "seed {} indexed {}", case.seed, indexed);
        }
    }
}

/// The seek fires on a share of the generated cases — with a filter on
/// the fact atom, a narrowing child, two shared variables, `__rowid`,
/// `Str`, `Date` and NULL keys and one-page pools among them — and not on
/// the rest.
#[test]
fn the_seek_fires_on_a_share_of_the_cases() {
    const SEEDS: u64 = 120;
    let mut seen = [0usize; 9];
    for seed in 0..SEEDS {
        let case = Case::from_seed(seed);
        let (_, _, seeks, _) = case.join(true);
        if seeks == 0 {
            continue;
        }
        let f = &case.features;
        let hits = [
            true,
            f.fact_filter,
            f.child,
            f.two_keys,
            f.rowid,
            f.str_key,
            f.date_key,
            f.nulls,
            f.one_page_pool,
        ];
        for (n, hit) in seen.iter_mut().zip(hits) {
            *n += hit as usize;
        }
    }
    let share = seen[0] as f64 / SEEDS as f64;
    println!(
        "the seek fires on {} of {SEEDS} cases ({share:.2})",
        seen[0]
    );
    assert!((0.2..=0.9).contains(&share), "seek share {share:.2}");
    let wanted = [
        "a filter on the fact atom",
        "a narrowing child",
        "two shared variables",
        "__rowid",
        "Str keys",
        "Date keys",
        "NULL keys",
        "a one-page pool",
    ];
    for (what, n) in wanted.into_iter().zip(&seen[1..]) {
        assert!(*n >= 3, "only {n} seeking cases with {what}");
    }
}

/// Regression pin for the old seek path, which ordered a vertex's atoms
/// by base-table size: it started from the small unindexed table and
/// scanned the large indexed one in full. One vertex — an atom filtered
/// to one row, a large indexed atom and a small unindexed atom — must
/// start from the one row, seek the large atom once and hash-join the
/// small one, charging the filtered row, the matched pairs of both joins,
/// the small table's scan and the answer's projection, and nothing for
/// the large table.
#[test]
fn a_one_row_atom_seeks_the_large_table_not_the_small_one() {
    let dir = Scratch::new();
    let storage = StorageDb::open(&dir.0).unwrap();
    let ints = |cols: &[&str], rows: i64, cell: &dyn Fn(i64, usize) -> i64| {
        let schema: Vec<(&str, ColumnType)> = cols.iter().map(|c| (*c, ColumnType::Int)).collect();
        let mut rel = Relation::new(Schema::new(&schema));
        for i in 0..rows {
            rel.push_row((0..cols.len()).map(|c| Value::Int(cell(i, c))).collect())
                .unwrap();
        }
        rel
    };
    let large = 10 * SEEK_MARGIN as i64;
    let pick = ints(&["id", "k"], 1000, &|i, c| if c == 0 { i } else { i % 500 });
    let fact = ints(&["k", "s", "p"], large, &|i, c| [i % 500, i % 100, i][c]);
    let dim = ints(&["s", "name"], 100, &|i, _| i);
    storage.ingest("pick", &pick, &[]).unwrap();
    storage.ingest("fact", &fact, &["k"]).unwrap();
    storage.ingest("dim", &dim, &[]).unwrap();
    let db = storage.load_database(24 * PAGE_SIZE as u64, None).unwrap();
    let q = CqBuilder::new()
        .atom("pick", "pick", &[("id", "I"), ("k", "K")])
        .atom("fact", "fact", &[("k", "K"), ("s", "S"), ("p", "P")])
        .atom("dim", "dim", &[("s", "S"), ("name", "N")])
        .filter(0, "id", CmpOp::Eq, Literal::Int(3))
        .out_var("I")
        .out_var("P")
        .out_var("N")
        .build();
    let plan = q_hypertree_decomp(&q, &QhdOptions::default(), &StructuralCost).unwrap();
    assert_eq!(plan.tree.len(), 1, "one vertex holds the three atoms");

    let mut budget = Budget::unlimited();
    let got = evaluate_qhd(&db, &q, &plan, &mut budget).unwrap();
    assert!(is_reference(&got, &reference(&db, &q)));
    assert_eq!(budget.join_stats().index_seeks(), 1);
    let matched = got.len() as u64;
    assert_eq!(matched as i64, large / 500);
    let bound = 1 + 3 * matched + dim.len() as u64;
    assert!(
        budget.charged() <= bound,
        "charged {} > {bound}: the large table was scanned",
        budget.charged()
    );
}
