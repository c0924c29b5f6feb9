//! Allocation regression guards for the join kernels and the bulk loader.
//!
//! The first `natural_join` boxed one `Box<[Value]>` key per build *and*
//! probe row; the kernels since hash key columns in place. These tests
//! count heap allocations with a counting global allocator and bound
//! them per row, so per-row key boxing cannot come back unnoticed. Bulk
//! loads (`RowLoader`, and `dbgen` on it) used to box a `Vec<Value>` per
//! row and an `Arc<str>` per string cell; they now allocate per column
//! and per distinct string.
//!
//! (Integration test = its own binary, so the global allocator and the
//! counters see only this file's work; the tests take [`serial`] so they
//! do not see each other's.)

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{allocs_of, bytes_of, serial};
use htqo_engine::cops;
use htqo_engine::crel::CRel;
use htqo_engine::error::Budget;
use htqo_engine::ops::natural_join;
use htqo_engine::value::Value;
use htqo_engine::vrel::VRelation;

/// Two relations sharing column `x`.
fn inputs(rows: usize) -> (VRelation, VRelation) {
    let mut a: Vec<_> = Vec::with_capacity(rows);
    let mut b: Vec<_> = Vec::with_capacity(rows);
    for i in 0..rows as i64 {
        // Sparse matches: the output stays small, so output-row
        // construction does not drown out the per-row key costs.
        a.push(vec![Value::Int(i), Value::Int(i * 2)].into_boxed_slice());
        b.push(vec![Value::Int(i * 7), Value::Int(i)].into_boxed_slice());
    }
    (
        VRelation::from_rows(vec!["x".into(), "y".into()], a),
        VRelation::from_rows(vec!["x".into(), "z".into()], b),
    )
}

/// The row kernel's allocations on a sparse join are the table, the hash
/// arrays and the few output rows — not one per input row.
#[test]
fn hash_kernel_allocates_a_fraction_per_input_row() {
    let _serial = serial();
    let rows = 3996usize;
    let (a, b) = inputs(rows);

    // Warm up once so lazily-initialized state is excluded.
    let mut budget = Budget::unlimited();
    let _ = natural_join(&a, &b, &mut budget).unwrap();

    let (allocs, out) = allocs_of(|| {
        let mut budget = Budget::unlimited();
        natural_join(&a, &b, &mut budget).unwrap()
    });
    // Measured: 596 allocations for 7,992 input rows (571 of them the
    // boxed output rows) = 0.075 per input row. A boxed key per row on
    // even one side would add 3,996.
    let input_rows = 2 * rows;
    assert!(out.len() < input_rows / 8, "inputs should join sparsely");
    assert!(
        allocs * 8 <= input_rows,
        "expected at most 1 allocation per 8 input rows from the in-place kernel: \
         {allocs} allocations for {input_rows} input rows ({} output rows)",
        out.len()
    );
}

/// Two relations with many matches, so output-row construction dominates:
/// `x` values repeat, each probe row matches several build rows.
fn dense_inputs(rows: usize) -> (VRelation, VRelation) {
    let mut a: Vec<_> = Vec::with_capacity(rows);
    let mut b: Vec<_> = Vec::with_capacity(rows);
    for i in 0..rows as i64 {
        a.push(vec![Value::Int(i % 200), Value::Int(i)].into_boxed_slice());
        b.push(vec![Value::Int(i % 200), Value::Int(i * 3)].into_boxed_slice());
    }
    (
        VRelation::from_rows(vec!["x".into(), "y".into()], a),
        VRelation::from_rows(vec!["x".into(), "z".into()], b),
    )
}

/// The columnar kernel gathers output columns instead of boxing one
/// `Box<[Value]>` per joined row, so its allocations **per joined row**
/// must drop well below the row kernel's (which pays ≥1 allocation per
/// output row just to materialize it).
#[test]
fn columnar_join_allocates_fraction_per_joined_row() {
    let _serial = serial();
    let rows = 1500usize;
    let (a, b) = dense_inputs(rows);
    // Conversions (and dictionary warm-up) happen outside the counter.
    let ca = CRel::from_vrel(&a);
    let cb = CRel::from_vrel(&b);
    let mut budget = Budget::unlimited();
    let _ = natural_join(&a, &b, &mut budget).unwrap();
    let _ = cops::natural_join(&ca, &cb, &mut budget).unwrap();

    let (row_allocs, row_out) = allocs_of(|| {
        let mut budget = Budget::unlimited();
        natural_join(&a, &b, &mut budget).unwrap()
    });
    let (col_allocs, col_out) = allocs_of(|| {
        let mut budget = Budget::unlimited();
        cops::natural_join(&ca, &cb, &mut budget).unwrap()
    });

    let n = row_out.len();
    assert_eq!(n, col_out.len(), "kernels disagree on output size");
    assert!(n > 5000, "inputs should join densely, got {n} rows");
    // The row kernel boxes every output row; the columnar kernel's
    // allocations are per *column* and per index-vector growth, so per
    // joined row they must come in at a small fraction.
    assert!(
        col_allocs * 4 < row_allocs,
        "expected the columnar kernel to allocate <1/4 of the row kernel \
         on a dense join: row={row_allocs}, columnar={col_allocs} ({n} joined rows)"
    );
}

/// `natural_join` builds on the smaller side and, when that is its second
/// argument, permutes the output back to the caller's column order. The
/// permutation moves column handles: after the gather, the swapped join
/// must not copy the output again.
#[test]
fn swapped_join_reorders_without_copying_cells() {
    let _serial = serial();
    let rows = |n: i64, cols: &[&str]| {
        let data = (0..n)
            .map(|i| vec![Value::Int(i), Value::Int(i * 3)].into_boxed_slice())
            .collect();
        CRel::from_vrel(&VRelation::from_rows(
            cols.iter().map(|c| c.to_string()).collect(),
            data,
        ))
    };
    let big = rows(2000, &["x", "y"]);
    let small = rows(1000, &["x", "z"]);
    let join = |a: &CRel, b: &CRel| {
        let mut budget = Budget::unlimited();
        cops::natural_join(a, b, &mut budget).unwrap()
    };
    let _ = (join(&small, &big), join(&big, &small)); // warm-up

    // Same build side, same probe side, same pairs; only `big ⋈ small`
    // has to reorder.
    let (plain_bytes, plain) = bytes_of(|| join(&small, &big));
    let (swapped_bytes, swapped) = bytes_of(|| join(&big, &small));
    assert_eq!(plain.cols(), ["x", "z", "y"]);
    assert_eq!(swapped.cols(), ["x", "y", "z"]);
    let payload = swapped.len() * 3 * std::mem::size_of::<i64>();
    assert_eq!(payload, 24_000);
    assert!(
        swapped_bytes < plain_bytes + payload / 8,
        "reordering {payload} B of output allocated {} B more than not reordering \
         (plain={plain_bytes}, swapped={swapped_bytes})",
        swapped_bytes.saturating_sub(plain_bytes)
    );
}

/// A two-column relation `(k, <payload>)` over typed columns: `k` holds
/// `keys` as `Int`, or as `Float` (a key no kernel has a key plan for).
fn keyed(keys: impl Iterator<Item = i64>, float: bool, payload: &str) -> CRel {
    use htqo_engine::column::Column;
    use htqo_engine::schema::ColumnType;
    use std::sync::Arc;
    let keys: Vec<i64> = keys.collect();
    let n = keys.len();
    let key = if float {
        let mut c = Column::new(ColumnType::Float);
        keys.iter().for_each(|&k| assert!(c.push_float(k as f64)));
        c
    } else {
        Column::from_ints(keys)
    };
    let payload_col = Column::from_ints((0..n as i64).collect());
    CRel::new(
        vec!["k".into(), payload.into()],
        vec![Arc::new(key), Arc::new(payload_col)],
        n,
    )
}

/// A join on a dense integer key fills a table indexed by `key − min` and
/// walks it: table, chain, one key block, the two pair lists, one gather
/// per output column — and no per-row hash array on either side, which
/// is what the same join on a `Float` key (the hashed path) still pays.
#[test]
fn dense_key_join_allocates_no_hash_arrays() {
    let _serial = serial();
    let (n_build, n_probe) = (200usize, 120_000usize);
    assert!(n_probe < u32::MAX as usize);
    let join = |float: bool| {
        let build = keyed(0..n_build as i64, float, "b");
        let probe = keyed((0..n_probe as i64).map(|i| i % 250), float, "p");
        let mut budget = Budget::unlimited();
        let _ = cops::natural_join(&build, &probe, &mut budget).unwrap(); // warm-up
        let mut budget = Budget::unlimited();
        let (allocs, _) = allocs_of(|| cops::natural_join(&build, &probe, &mut budget).unwrap());
        let mut budget = Budget::unlimited();
        let (bytes, out) = bytes_of(|| cops::natural_join(&build, &probe, &mut budget).unwrap());
        assert_eq!(out.len(), n_probe / 250 * 200);
        (allocs, bytes)
    };
    let (dense_allocs, dense_bytes) = join(false);
    let (hashed_allocs, hashed_bytes) = join(true);
    // The pair lists grow by doubling (≈ 17 reallocations each); the rest
    // is a fixed handful.
    assert!(
        dense_allocs <= hashed_allocs && dense_allocs < 64,
        "dense={dense_allocs} hashed={hashed_allocs}"
    );
    let hash_arrays = 8 * (n_build + n_probe);
    assert!(
        dense_bytes + hash_arrays * 9 / 10 < hashed_bytes,
        "the dense join allocated {dense_bytes} B, the hashed one {hashed_bytes} B: \
         expected ≈ {hash_arrays} B of hash arrays less"
    );
}

/// 20,000 rows with a 3-value string column through `RowLoader`: the
/// columns, the loader's column list, the string column's memo and the
/// three strings it remembers — nothing per row.
#[test]
fn loader_allocates_per_column_and_distinct_string() {
    use htqo_engine::relation::Relation;
    use htqo_engine::schema::{ColumnType, Schema};
    let _serial = serial();
    let rows = 20_000i64;
    let flags = ["alloc-pin-A", "alloc-pin-N", "alloc-pin-R"];
    let load = || {
        let mut rel = Relation::new(Schema::new(&[
            ("k", ColumnType::Int),
            ("flag", ColumnType::Str),
            ("price", ColumnType::Float),
        ]));
        rel.reserve(rows as usize);
        let mut loader = rel.loader();
        for k in 0..rows {
            assert!(loader.push_int(k));
            assert!(loader.push_str(flags[(k * 7 % 3) as usize]));
            assert!(loader.push_float(k as f64 / 4.0));
            loader.end_row();
        }
        drop(loader);
        rel
    };
    let _ = load(); // interns the three strings
    let (allocs, rel) = allocs_of(load);
    assert_eq!(rel.len(), rows as usize);
    // Measured: 16 — the schema (4), the relation's columns (4), their
    // reservations (3), the loader's column list, the memo and the 3
    // strings it remembers.
    let columns = 3;
    assert!(
        allocs <= 4 * (columns + flags.len()),
        "{allocs} allocations to load {rows} rows"
    );
}

/// `dbgen` at SF 0.004 generates four times the rows of SF 0.001 (≈ 26 k
/// more) but may allocate more blocks only for the formatted names: a
/// `Vec` or an `Arc` per row or per string cell would be thousands more.
#[test]
fn dbgen_allocates_per_table_and_name_not_per_row() {
    use htqo_tpch::{generate, scaled_rows, DbgenOptions, TABLES};
    let _serial = serial();
    let run = |scale: f64| generate(&DbgenOptions { scale, seed: 3 });
    // Warm-up: every string of both sizes is in the dictionary.
    let _ = (run(0.004), run(0.001));
    let (small, _) = allocs_of(|| run(0.001));
    let (large, _) = allocs_of(|| run(0.004));
    let rows = |tables: &[&str], scale| tables.iter().map(|t| scaled_rows(t, scale)).sum::<usize>();
    let named = ["supplier", "customer", "part"];
    let more_names = rows(&named, 0.004) - rows(&named, 0.001);
    let more_rows = rows(&TABLES, 0.004) - rows(&TABLES, 0.001);
    assert!(
        more_rows > 20 * more_names,
        "{more_rows} rows, {more_names} names"
    );
    // Measured: 723 and 1,025 — 302 more, for 1,080 more names (the
    // memos remember up to 256 of each name column before they give up).
    assert!(
        large.saturating_sub(small) <= more_names,
        "SF 0.001: {small} allocations, SF 0.004: {large} — {} more for {more_names} more \
         names and ≈ {more_rows} more rows",
        large - small
    );
}

/// Distinct projection used to keep one heap `Vec<u32>` per distinct key;
/// it now holds a bitmap (dense keys) or one chained table (any keys).
#[test]
fn distinct_project_allocates_o1_blocks() {
    let _serial = serial();
    let n = 100_000i64;
    let vars = ["k".to_string()];
    for (what, rel) in [
        ("dense", keyed(0..n, false, "p")),
        ("sparse", keyed((0..n).map(|i| i * 1_000_003), false, "p")),
        ("float", keyed(0..n, true, "p")),
    ] {
        let project = || {
            let mut budget = Budget::unlimited();
            cops::project(&rel, &vars, true, &mut budget).unwrap()
        };
        let _ = project(); // warm-up
        let (allocs, out) = allocs_of(project);
        assert_eq!(out.len(), n as usize);
        assert!(
            allocs < 48,
            "{what}: {allocs} allocations for {n} distinct keys"
        );
    }
}
