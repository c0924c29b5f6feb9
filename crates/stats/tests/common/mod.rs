//! Random conjunctive queries with random statistics, shared by the
//! pricing property suites, and the boxed ANALYZE the typed one is held
//! to. Everything generated derives from one `u64` seed so a failing case
//! is reproducible from the proptest report.

#![allow(dead_code)] // each including test binary uses a subset

use htqo_cq::{CmpOp, ConjunctiveQuery, CqBuilder, Literal};
use htqo_engine::dict;
use htqo_engine::schema::Database;
use htqo_engine::value::Value;
use htqo_stats::{ColumnStats, DbStats, EquiDepthHistogram, TableStats};
use std::collections::BTreeMap;

/// SplitMix64 — small, seedable, good enough to drive a generator.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    pub fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }
}

/// One generated planning problem.
pub struct Case {
    pub query: ConjunctiveQuery,
    pub stats: DbStats,
    /// A random secondary-index catalog (mixed case, possibly empty).
    pub indexes: Vec<(String, String)>,
}

/// Tables with statistics; `T1` is capitalized so index matching has to
/// fold case. `u0`/`u1` appear in queries but never in the statistics.
const KNOWN_TABLES: [&str; 4] = ["t0", "T1", "t2", "t3"];
const UNKNOWN_TABLES: [&str; 2] = ["u0", "u1"];
/// `id` is each known table's key: its statistics always say so.
const COLUMNS: [&str; 4] = ["a", "b", "c", "id"];
/// Names whose sorted order differs from their pool order (and from any
/// first-occurrence order), so name-ordered arithmetic is exercised.
const VARS: [&str; 16] = [
    "X", "a", "V10", "V2", "B", "__rid_t", "Zz", "V1", "m", "k", "V3", "Q", "w", "V20", "c", "Y",
];
const OPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
];

fn column_stats(rng: &mut Rng, rows: u64) -> ColumnStats {
    let distinct = 1 + rng.next() % rows.max(1);
    let (lo, hi) = (rng.below(50) as i64, 50 + rng.below(200) as i64);
    let histogram = rng.chance(40).then(|| {
        let mut values: Vec<i64> = (0..40).map(|_| lo + rng.below(200) as i64).collect();
        values.sort_unstable();
        let values: Vec<Value> = values.into_iter().map(Value::Int).collect();
        EquiDepthHistogram::from_sorted(&values, 1 + rng.below(8)).expect("non-empty")
    });
    // Without min/max (and without a histogram) range filters fall back
    // to the default selectivity.
    let bounded = rng.chance(70);
    ColumnStats {
        distinct,
        nulls: 0,
        min: bounded.then_some(Value::Int(lo)),
        max: bounded.then_some(Value::Int(hi)),
        histogram,
    }
}

fn random_stats(rng: &mut Rng) -> DbStats {
    let mut stats = DbStats::default();
    for table in KNOWN_TABLES {
        // Occasionally empty, so the `max(1.0)` guards matter.
        let rows = if rng.chance(10) {
            0
        } else {
            1 + rng.next() % 100_000
        };
        let mut t = TableStats {
            rows,
            ..Default::default()
        };
        for column in &COLUMNS[..3] {
            if rng.chance(85) {
                t.columns
                    .insert(column.to_string(), column_stats(rng, rows));
            }
        }
        let key = ColumnStats {
            distinct: rows,
            nulls: 0,
            min: None,
            max: None,
            histogram: None,
        };
        t.columns.insert(COLUMNS[3].to_string(), key);
        stats.tables.insert(table.to_string(), t);
    }
    stats
}

/// A query of `atoms` atoms over the table pool. `connected` chains each
/// atom to its predecessor through a shared variable and draws the rest
/// from the whole pool (sparse: long paths and cycles, decomposable at
/// small widths); otherwise variables come from half the pool (dense:
/// many shared and repeated variables, cross products).
pub fn random_case(seed: u64, atoms: usize, connected: bool) -> Case {
    let mut rng = Rng::new(seed);
    let stats = random_stats(&mut rng);

    let mut b = CqBuilder::new();
    let mut used: Vec<&str> = Vec::new();
    let pool = if connected { &VARS[..] } else { &VARS[..8] };
    let mut prev_var = pool[rng.below(pool.len())];
    for i in 0..atoms {
        let table = if rng.chance(20) {
            UNKNOWN_TABLES[rng.below(UNKNOWN_TABLES.len())]
        } else {
            KNOWN_TABLES[rng.below(KNOWN_TABLES.len())]
        };
        let first_col = rng.below(COLUMNS.len());
        let arity = 1 + rng.below(3);
        let mut args: Vec<(&str, &str)> = Vec::new();
        for j in 0..arity {
            let var = if j == 0 && connected {
                prev_var
            } else {
                pool[rng.below(pool.len())]
            };
            args.push((COLUMNS[(first_col + j) % COLUMNS.len()], var));
            used.push(var);
        }
        prev_var = args[rng.below(args.len())].1;
        b = b.atom(table, &format!("{table}_{i}"), &args);
    }
    for _ in 0..rng.below(5) {
        b = b.filter(
            rng.below(atoms),
            COLUMNS[rng.below(3)],
            OPS[rng.below(OPS.len())],
            Literal::Int(rng.below(260) as i64),
        );
    }
    // Head: plain variables, a grouped aggregate, a global aggregate, or
    // Boolean.
    match rng.below(4) {
        0 => {
            for _ in 0..1 + rng.below(3) {
                b = b.out_var(used[rng.below(used.len())]);
            }
        }
        1 => {
            let g = used[rng.below(used.len())];
            b = b
                .out_var(g)
                .group(g)
                .out_agg(htqo_cq::AggFunc::Count, None, "n");
        }
        2 => b = b.out_agg(htqo_cq::AggFunc::Count, None, "n"),
        _ => {}
    }

    let mut indexes = Vec::new();
    for table in KNOWN_TABLES.iter().chain(&UNKNOWN_TABLES) {
        for column in &COLUMNS[..3] {
            if rng.chance(25) {
                let table = if rng.chance(50) {
                    table.to_uppercase()
                } else {
                    table.to_string()
                };
                indexes.push((table, column.to_uppercase()));
            }
        }
    }
    Case {
        query: b.build(),
        stats,
        indexes,
    }
}

/// The cycle `p0(V0,V1), p1(V1,V2), …, p{n-1}(V{n-1},V0)` with uneven
/// table sizes, so the smallest atom cardinality is well above 1.
pub fn cycle(n: usize) -> (ConjunctiveQuery, DbStats) {
    chain(n, n)
}

/// The line `p0(V0,V1), …, p{n-1}(V{n-1},Vn)` with the sizes of [`cycle`].
pub fn line(n: usize) -> (ConjunctiveQuery, DbStats) {
    chain(n, n + 1)
}

/// `n` binary atoms, atom `i` joining `V{i}` to `V{(i + 1) % wrap}`.
fn chain(n: usize, wrap: usize) -> (ConjunctiveQuery, DbStats) {
    let mut rng = Rng::new(12);
    let mut b = CqBuilder::new();
    let mut stats = DbStats::default();
    for i in 0..n {
        let table = format!("p{i}");
        let (l, r) = (format!("V{i}"), format!("V{}", (i + 1) % wrap));
        b = b.atom(&table, &table, &[("l", &l), ("r", &r)]);
        let rows = 40 + rng.below(2000) as u64;
        let mut t = TableStats {
            rows,
            ..Default::default()
        };
        for column in ["l", "r"] {
            let distinct = 1 + rng.next() % rows;
            t.columns.insert(
                column.to_string(),
                ColumnStats {
                    distinct,
                    ..Default::default()
                },
            );
        }
        stats.tables.insert(table, t);
    }
    (b.out_var("V0").build(), stats)
}

/// `analyze_with_buckets` as it stood before it read typed columns (its
/// body at commit `48d667e`, verbatim but for the timer): every cell boxed
/// into a `Value`, the boxes sorted by `Value`'s `Ord`, the statistics
/// read off the sorted boxes through `EquiDepthHistogram::from_sorted`.
/// `analyze_equiv_prop` requires the library's result to equal this one.
pub fn reference_analyze(db: &Database, buckets: usize) -> DbStats {
    let mut stats = DbStats::default();
    for (name, rel) in db.tables() {
        let mut table = TableStats {
            rows: rel.len() as u64,
            columns: BTreeMap::new(),
        };
        for (ci, col) in rel.schema().columns().iter().enumerate() {
            // Columnar storage: walk the one stored column directly.
            let stored = rel.column(ci);
            let reader = dict::reader();
            let mut values: Vec<Value> = Vec::with_capacity(rel.len());
            let mut nulls = 0u64;
            for i in 0..rel.len() {
                if stored.is_null(i) {
                    nulls += 1;
                } else {
                    values.push(stored.value_with(i, &reader));
                }
            }
            drop(reader);
            values.sort();
            let distinct = {
                // Sorted: count boundaries (exact).
                let mut d = 0u64;
                let mut prev: Option<&Value> = None;
                for v in &values {
                    if prev != Some(v) {
                        d += 1;
                        prev = Some(v);
                    }
                }
                d
            };
            let histogram = EquiDepthHistogram::from_sorted(&values, buckets);
            table.columns.insert(
                col.name.clone(),
                ColumnStats {
                    distinct,
                    nulls,
                    min: values.first().cloned(),
                    max: values.last().cloned(),
                    histogram,
                },
            );
        }
        stats.tables.insert(name.to_string(), table);
    }
    stats
}
