//! `ANALYZE`: full-scan statistics gathering (the *Statistics Picker* of
//! the paper's architecture).
//!
//! Thorough means what the paper's Section 6.1 prices: every cell of every
//! column is read, distinct counts are exact and so is every equi-depth
//! bound — ANALYZE stays linear in the data (≈800 s for 1 GB there) while
//! a structural plan costs the same at any size (≈1.5 s); the
//! `stats_vs_decomp` harness reproduces that comparison. It does not mean
//! boxing: a stored column is already a vector of machine words, so each
//! kind is reduced to `i64` *keys* whose integer order is the order
//! `Value`'s `Ord` gives the cells — integers and dates as they are,
//! floats through `float_key`, strings as dictionary codes that are put
//! in content order once per distinct string — and every statistic is
//! read off the ascending *runs* (distinct key, occurrences) of those
//! keys. No `Value` exists until a minimum, a maximum or a histogram bound
//! is written down.
//!
//! Runs come from a counting array when the keys are dense and from a
//! sort otherwise (`with_runs`). Dense is `n ≥ 64` and `max − min <
//! 2·n`, with no additive constant on purpose: the array is sized by the
//! column, so a 40-row table never zeroes and sweeps a block sized for
//! somebody else's (a `4·n + 1024` rule measured twice the set-up time of
//! the twelve 40-row tables of the `plan_cold` benchmark workload).

use crate::stats::{bound_positions, ColumnStats, DbStats, EquiDepthHistogram, TableStats};
use htqo_engine::column::{Column, ColumnData, NullMask};
use htqo_engine::dict::{self, NULL_CODE};
use htqo_engine::schema::Database;
use htqo_engine::value::{norm_f64, Value};
use std::collections::BTreeMap;
use std::time::Instant;

/// Default number of histogram buckets (PostgreSQL's
/// `default_statistics_target` is 100).
pub const DEFAULT_BUCKETS: usize = 100;

/// Gathers full statistics for every table of `db`.
pub fn analyze(db: &Database) -> DbStats {
    analyze_with_buckets(db, DEFAULT_BUCKETS)
}

/// Gathers full statistics with a custom histogram resolution.
pub fn analyze_with_buckets(db: &Database, buckets: usize) -> DbStats {
    gather(db, 1, buckets)
}

/// Sampled `ANALYZE`: statistics from a deterministic 1-in-`step` row
/// sample, without histograms. Distinct and NULL counts are those of the
/// sample scaled up linearly (a standard, crude estimator; at `step` 1
/// they are the full ANALYZE's). Used to show the speed/accuracy
/// trade-off in the examples.
pub fn analyze_sampled(db: &Database, step: usize) -> DbStats {
    gather(db, step.max(1), 0)
}

/// Statistics of every `step`-th row of every table, counts scaled to the
/// table; `buckets` 0 leaves the histograms out.
fn gather(db: &Database, step: usize, buckets: usize) -> DbStats {
    let start = Instant::now();
    let mut stats = DbStats::default();
    // One set of buffers for the whole pass: it allocates per column (a
    // name, the bounds), not per cell.
    let mut scratch = Scratch::default();
    for (name, rel) in db.tables() {
        let rows = rel.len() as u64;
        let visited = rel.len().div_ceil(step) as u64;
        let scaled = |seen: u64| {
            if seen == 0 {
                return 0;
            }
            let estimate = (seen as f64 * (rows as f64 / visited as f64)).round() as u64;
            estimate.clamp(seen, rows)
        };
        let mut table = TableStats {
            rows,
            columns: BTreeMap::new(),
        };
        for (ci, col) in rel.schema().columns().iter().enumerate() {
            let seen = column_stats(rel.column(ci), step, buckets, &mut scratch);
            table.columns.insert(
                col.name.clone(),
                ColumnStats {
                    distinct: scaled(seen.distinct),
                    nulls: scaled(seen.nulls),
                    ..seen
                },
            );
        }
        stats.tables.insert(name.to_string(), table);
    }
    stats.gather_seconds = start.elapsed().as_secs_f64();
    stats
}

/// Buffers reused from column to column.
#[derive(Default)]
struct Scratch {
    /// The visited non-NULL cells of the column at hand, as keys.
    keys: Vec<i64>,
    /// Occurrences per key offset, when the keys are dense.
    counts: Vec<u32>,
    /// Distinct string codes with their occurrences, to be put in content
    /// order.
    runs: Vec<(u32, u64)>,
}

/// `f64::total_cmp`'s order as integer order, on the float as `Value`'s
/// `Ord` and `Eq` see it (all NaNs one, `-0.0` as `0.0`). Leaves the sign
/// bit alone, so it is its own inverse on the bits ([`key_float`]).
fn float_key(x: f64) -> i64 {
    let bits = norm_f64(x).to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

fn key_float(key: i64) -> f64 {
    f64::from_bits((key ^ (((key >> 63) as u64) >> 1) as i64) as u64)
}

/// Exact statistics of every `step`-th cell of `col`.
fn column_stats(col: &Column, step: usize, buckets: usize, scratch: &mut Scratch) -> ColumnStats {
    let Scratch { keys, counts, runs } = scratch;
    let visited = col.len().div_ceil(step);
    keys.clear();
    keys.reserve(visited);
    let non_null = match col.data() {
        ColumnData::Int(cells) => {
            load(keys, cells, col.nulls(), step, |x| x);
            numeric(keys, counts, buckets, Value::Int)
        }
        ColumnData::Date(cells) => {
            load(keys, cells, col.nulls(), step, i64::from);
            numeric(keys, counts, buckets, |day| Value::Date(day as i32))
        }
        ColumnData::Float(cells) => {
            load(keys, cells, col.nulls(), step, float_key);
            numeric(keys, counts, buckets, |key| Value::Float(key_float(key)))
        }
        ColumnData::Str(codes) => {
            let sampled = codes.iter().step_by(step);
            keys.extend(sampled.filter(|&&c| c != NULL_CODE).map(|&c| i64::from(c)));
            strings(keys, counts, runs, buckets)
        }
        ColumnData::Mixed(_) => {
            unreachable!("a stored relation has the typed columns `Relation::new` gave it")
        }
    };
    ColumnStats {
        nulls: (visited - keys.len()) as u64,
        ..non_null
    }
}

/// Appends the key of every `step`-th non-NULL cell.
fn load<T: Copy>(
    keys: &mut Vec<i64>,
    cells: &[T],
    nulls: &NullMask,
    step: usize,
    key: impl Fn(T) -> i64,
) {
    if nulls.any() {
        let sampled = cells.iter().enumerate().step_by(step);
        keys.extend(
            sampled
                .filter(|(i, _)| !nulls.get(*i))
                .map(|(_, &x)| key(x)),
        );
    } else {
        keys.extend(cells.iter().step_by(step).map(|&x| key(x)));
    }
}

/// Calls `f` with the ascending runs of `keys`: each distinct key with
/// the number of times it occurs.
fn with_runs<R>(
    keys: &mut [i64],
    counts: &mut Vec<u32>,
    f: impl FnOnce(&mut dyn Iterator<Item = (i64, u64)>) -> R,
) -> R {
    let n = keys.len();
    let (min, max) = keys
        .iter()
        .fold((i64::MAX, i64::MIN), |(lo, hi), &k| (lo.min(k), hi.max(k)));
    // `max ≥ min` whenever `n > 0`, so the wrapped difference is the true
    // one as a `u64`, `i64::MIN … i64::MAX` included.
    let span = max.wrapping_sub(min) as u64;
    if n >= 64 && n <= u32::MAX as usize && span < 2 * n as u64 {
        counts.clear();
        counts.resize(span as usize + 1, 0);
        for &k in keys.iter() {
            counts[k.wrapping_sub(min) as usize] += 1;
        }
        let occupied = counts.iter().enumerate().filter(|(_, &c)| c > 0);
        f(&mut occupied.map(|(offset, &c)| (min + offset as i64, u64::from(c))))
    } else {
        keys.sort_unstable();
        let runs = keys.chunk_by(|a, b| a == b);
        f(&mut runs.map(|run| (run[0], run.len() as u64)))
    }
}

/// Reads a column's statistics off the ascending runs of its `n` non-NULL
/// cells (NULLs are the caller's to count): the bound at sorted position
/// `p` is the key of the run that covers `p`.
fn summarize<K: Copy>(
    runs: &mut dyn Iterator<Item = (K, u64)>,
    n: usize,
    buckets: usize,
    value: impl Fn(K) -> Value,
) -> ColumnStats {
    let mut positions = bound_positions(n, buckets).peekable();
    let mut bounds = Vec::with_capacity(buckets.min(n));
    let mut distinct = 0;
    let mut covered = 0;
    let mut ends = None;
    for (key, occurrences) in runs {
        distinct += 1;
        covered += occurrences;
        while positions.next_if(|&p| (p as u64) < covered).is_some() {
            bounds.push(value(key));
        }
        ends = Some((ends.map_or(key, |(first, _)| first), key));
    }
    ColumnStats {
        distinct,
        nulls: 0,
        min: ends.map(|(first, _)| value(first)),
        max: ends.map(|(_, last)| value(last)),
        histogram: EquiDepthHistogram::from_bounds(bounds, n as u64),
    }
}

fn numeric(
    keys: &mut [i64],
    counts: &mut Vec<u32>,
    buckets: usize,
    value: impl Fn(i64) -> Value,
) -> ColumnStats {
    let n = keys.len();
    with_runs(keys, counts, |runs| summarize(runs, n, buckets, value))
}

/// `keys` are dictionary codes: content-unique, so the distinct strings
/// are the codes seen, and only those are compared as text.
fn strings(
    keys: &mut [i64],
    counts: &mut Vec<u32>,
    runs: &mut Vec<(u32, u64)>,
    buckets: usize,
) -> ColumnStats {
    let n = keys.len();
    runs.clear();
    with_runs(keys, counts, |by_code| {
        runs.extend(by_code.map(|(code, occurrences)| (code as u32, occurrences)))
    });
    let reader = dict::reader();
    runs.sort_unstable_by(|a, b| reader.str_of(a.0).cmp(reader.str_of(b.0)));
    summarize(&mut runs.iter().copied(), n, buckets, |code| {
        Value::Str(reader.arc_of(code))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use htqo_engine::relation::Relation;
    use htqo_engine::schema::{ColumnType, Schema};

    fn db() -> Database {
        let mut db = Database::new();
        let mut r = Relation::new(Schema::new(&[
            ("a", ColumnType::Int),
            ("s", ColumnType::Str),
        ]));
        for i in 0..50 {
            r.push_row(vec![Value::Int(i % 10), Value::str(&format!("v{}", i % 3))])
                .unwrap();
        }
        r.push_row(vec![Value::Null, Value::Null]).unwrap();
        db.insert_table("r", r);
        db
    }

    #[test]
    fn analyze_counts_exactly() {
        let stats = analyze(&db());
        let t = stats.table("r").unwrap();
        assert_eq!(t.rows, 51);
        let a = t.column("a").unwrap();
        assert_eq!(a.distinct, 10);
        assert_eq!(a.nulls, 1);
        assert_eq!(a.min, Some(Value::Int(0)));
        assert_eq!(a.max, Some(Value::Int(9)));
        assert!(a.histogram.is_some());
        let s = t.column("s").unwrap();
        assert_eq!(s.distinct, 3);
    }

    #[test]
    fn sampled_analyze_approximates() {
        let stats = analyze_sampled(&db(), 5);
        let t = stats.table("r").unwrap();
        let a = t.column("a").unwrap();
        // With period-10 data a 1-in-5 sample still sees several values.
        assert!(a.distinct >= 2);
        assert!(a.distinct <= 51);
        assert!(stats.gather_seconds >= 0.0);
    }

    /// A column of every kind, 9,000 rows, each cell NULL with chance 1/3
    /// (placed by a hash of the row, so no sampling step is in phase).
    fn nullable_db() -> Database {
        let mut r = Relation::new(Schema::new(&[
            ("i", ColumnType::Int),
            ("d", ColumnType::Date),
            ("f", ColumnType::Float),
            ("s", ColumnType::Str),
        ]));
        let hash = |x: u64| x.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40;
        for row in 0..9000u64 {
            let cells = [
                Value::Int((hash(row) % 500) as i64 - 250),
                Value::Date((hash(row + 1) % 2000) as i32),
                Value::Float((hash(row + 2) % 700) as f64 / 7.0),
                Value::str(&format!("name-{}", hash(row + 3) % 900)),
            ];
            let cells = cells.into_iter().enumerate();
            r.push_row(
                cells
                    .map(|(c, v)| match hash(row * 4 + c as u64) % 3 {
                        0 => Value::Null,
                        _ => v,
                    })
                    .collect(),
            )
            .unwrap();
        }
        let mut db = Database::new();
        db.insert_table("r", r);
        db
    }

    #[test]
    fn sampled_analyze_counts_the_nulls_it_sees() {
        let db = nullable_db();
        let full = analyze(&db);
        for step in [1usize, 2, 7] {
            let sampled = analyze_sampled(&db, step);
            let rows = 9000.0f64;
            // Five standard deviations of a 1-in-3 share estimated from
            // rows / step draws.
            let error = 5.0 * rows * ((1.0 / 3.0 * 2.0 / 3.0) / (rows / step as f64)).sqrt();
            for name in ["i", "d", "f", "s"] {
                let exact = full.table("r").unwrap().column(name).unwrap().nulls;
                let got = sampled.table("r").unwrap().column(name).unwrap().nulls;
                assert!((2500..3500).contains(&exact), "{name}: {exact}");
                assert!(
                    (got as f64 - exact as f64).abs() <= error * f64::from(step != 1),
                    "{name} at step {step}: {got} for {exact} NULLs"
                );
            }
        }
    }

    #[test]
    fn sampling_every_row_is_the_full_analyze() {
        for db in [db(), nullable_db()] {
            let full = analyze(&db);
            let sampled = analyze_sampled(&db, 1);
            for (name, table) in &full.tables {
                for (column, exact) in &table.columns {
                    let expected = ColumnStats {
                        histogram: None,
                        ..exact.clone()
                    };
                    let got = sampled.table(name).unwrap().column(column);
                    assert_eq!(got, Some(&expected), "{name}.{column}");
                }
            }
        }
    }

    #[test]
    fn analyze_records_time() {
        let stats = analyze(&db());
        assert!(stats.gather_seconds >= 0.0);
    }

    #[test]
    fn missing_table_lookup() {
        let stats = analyze(&db());
        assert!(stats.table("zz").is_none());
    }
}
