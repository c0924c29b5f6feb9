//! Allocation regression guards for the join kernels and the bulk loader.
//!
//! The first `natural_join` boxed one `Box<[Value]>` key per build *and*
//! probe row, and one per output row; the kernels since hash key columns
//! in place and gather output columns. These tests
//! count heap allocations with a counting global allocator and bound
//! them per row, so per-row key boxing cannot come back unnoticed. Bulk
//! loads (`RowLoader`, and `dbgen` on it) used to box a `Vec<Value>` per
//! row and an `Arc<str>` per string cell; they now allocate per column
//! and per distinct string. The `P′` vertex join allocates per position
//! list and per output column, not per column carried through its joins,
//! and the columnar aggregate allocates no row per answer row and one
//! output row, not three heap objects, per group.
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

/// The kernel's allocations on a sparse join are the table, the hash
/// arrays, the pair lists and the output columns — not one per input row.
#[test]
fn hash_kernel_allocates_a_fraction_per_input_row() {
    let _serial = serial();
    let rows = 3996usize;
    let (a, b) = inputs(rows);
    let (a, b) = (CRel::from_vrel(&a), CRel::from_vrel(&b));

    // Warm up once so lazily-initialized state is excluded.
    let mut budget = Budget::unlimited();
    let _ = cops::natural_join(&a, &b, &mut budget).unwrap();

    let (allocs, out) = allocs_of(|| {
        let mut budget = Budget::unlimited();
        cops::natural_join(&a, &b, &mut budget).unwrap()
    });
    // Measured: 15 allocations for 7,992 input rows (571 output rows; 39
    // before the pair lists were sized once). A boxed key per row on even
    // one side would add 3,996.
    let input_rows = 2 * rows;
    assert!(out.len() < input_rows / 8, "inputs should join sparsely");
    assert!(
        allocs * 16 <= input_rows,
        "expected at most 1 allocation per 16 input rows from the in-place kernel: \
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

/// The kernel gathers output columns instead of boxing one `Box<[Value]>`
/// per joined row: on a dense join its allocations are a few per output
/// column plus the doubling growth of the two pair lists, however many
/// rows it joins.
#[test]
fn columnar_join_allocates_per_column_not_per_joined_row() {
    let _serial = serial();
    let rows = 1500usize;
    let (a, b) = dense_inputs(rows);
    // Conversions (and dictionary warm-up) happen outside the counter.
    let ca = CRel::from_vrel(&a);
    let cb = CRel::from_vrel(&b);
    let mut budget = Budget::unlimited();
    let _ = cops::natural_join(&ca, &cb, &mut budget).unwrap();

    let (allocs, out) = allocs_of(|| {
        let mut budget = Budget::unlimited();
        cops::natural_join(&ca, &cb, &mut budget).unwrap()
    });
    let n = out.len();
    assert!(n > 5000, "inputs should join densely, got {n} rows");
    // Measured: 21 for 3 output columns and 11,300 joined rows (47 before
    // the pair lists were sized once and the direct table became one
    // list; the row kernel this replaced boxed every joined row: over
    // 11,300).
    let growth = 2 * (usize::BITS - n.leading_zeros()) as usize;
    assert!(
        allocs <= 4 * out.cols().len() + growth,
        "{allocs} allocations for {} output columns ({n} joined rows)",
        out.cols().len()
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
    assert_eq!(plain.to_vrel().cols(), ["x", "z", "y"]);
    assert_eq!(swapped.to_vrel().cols(), ["x", "y", "z"]);
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

/// Q8's lineitem vertex in miniature — `n2 ⋈ supplier ⋈ lineitem ⋈
/// σ(part)`, lineitem carrying columns no one reads after the vertex.
struct Q8Vertex {
    db: htqo_engine::schema::Database,
    atoms: Vec<(htqo_cq::Atom, Vec<htqo_cq::Filter>)>,
    chi: Vec<htqo_engine::Name>,
}

impl Q8Vertex {
    /// The selections the vertex join takes.
    fn select(&self) -> Vec<htqo_engine::crel::Selection<'_>> {
        let mut budget = Budget::unlimited();
        (self.atoms.iter())
            .map(|(a, f)| {
                let f: Vec<_> = f.iter().collect();
                let vars = htqo_engine::scan::atom_names(a);
                htqo_engine::scan::select_atom(&self.db, a, vars, &f, false, &mut budget).unwrap()
            })
            .collect()
    }
}

/// [`Q8Vertex`] with `extra` carried lineitem columns.
fn q8_vertex(extra: usize) -> Q8Vertex {
    use htqo_cq::{Atom, AtomId, CmpOp, Filter, Literal};
    use htqo_engine::relation::Relation;
    use htqo_engine::schema::{ColumnType, Database, Schema};
    let table = |cols: &[(&str, ColumnType)], rows: i64, cell: &dyn Fn(i64, usize) -> Value| {
        let mut rel = Relation::new(Schema::new(cols));
        for i in 0..rows {
            rel.push_row((0..cols.len()).map(|c| cell(i, c)).collect())
                .unwrap();
        }
        rel
    };
    let mut db = Database::new();
    let name = |i: i64| Value::str(&format!("alloc-pin-{i}"));
    let n2 = [
        ("n_nationkey", ColumnType::Int),
        ("n_name", ColumnType::Str),
    ];
    db.insert_table(
        "nation",
        table(&n2, 25, &|i, c| {
            if c == 0 {
                Value::Int(i)
            } else {
                name(i)
            }
        }),
    );
    let supplier = [
        ("s_suppkey", ColumnType::Int),
        ("s_nationkey", ColumnType::Int),
    ];
    db.insert_table(
        "supplier",
        table(&supplier, 200, &|i, c| {
            Value::Int(if c == 0 { i } else { i % 25 })
        }),
    );
    let part = [("p_partkey", ColumnType::Int), ("p_type", ColumnType::Str)];
    db.insert_table(
        "part",
        table(&part, 4000, &|i, c| {
            if c == 0 {
                Value::Int(i)
            } else {
                name(i % 150)
            }
        }),
    );
    let mut lineitem: Vec<(String, ColumnType)> = ["l_partkey", "l_suppkey", "l_orderkey"]
        .iter()
        .map(|c| (c.to_string(), ColumnType::Int))
        .collect();
    lineitem.push(("l_extendedprice".into(), ColumnType::Float));
    lineitem.extend((0..extra).map(|w| (format!("l_extra{w}"), ColumnType::Int)));
    let cols: Vec<(&str, ColumnType)> = lineitem.iter().map(|(c, t)| (c.as_str(), *t)).collect();
    db.insert_table(
        "lineitem",
        table(&cols, 24_000, &|i, c| match c {
            0 => Value::Int(i * 7 % 4000),
            1 => Value::Int(i % 200),
            2 => Value::Int(i / 4),
            3 => Value::Float(i as f64 * 0.5),
            _ => Value::Int(i + c as i64),
        }),
    );
    let atom = |relation: &str, args: &[(&str, &str)]| Atom {
        relation: relation.into(),
        alias: relation.into(),
        args: args
            .iter()
            .map(|(c, v)| (c.to_string(), v.to_string()))
            .collect(),
    };
    let mut l_args: Vec<(String, String)> = [
        ("l_partkey", "P"),
        ("l_suppkey", "S"),
        ("l_orderkey", "O"),
        ("l_extendedprice", "EP"),
    ]
    .iter()
    .map(|(c, v)| (c.to_string(), v.to_string()))
    .collect();
    l_args.push((htqo_cq::isolator::ROWID_COLUMN.into(), "RID".into()));
    l_args.extend((0..extra).map(|w| (format!("l_extra{w}"), format!("W{w}"))));
    let l_args: Vec<(&str, &str)> = l_args
        .iter()
        .map(|(c, v)| (c.as_str(), v.as_str()))
        .collect();
    let p_type = Filter {
        atom: AtomId(3),
        column: "p_type".into(),
        op: CmpOp::Eq,
        value: Literal::Str("alloc-pin-7".into()),
    };
    let atoms = vec![
        (
            atom("nation", &[("n_nationkey", "SN"), ("n_name", "NN")]),
            vec![],
        ),
        (
            atom("supplier", &[("s_suppkey", "S"), ("s_nationkey", "SN")]),
            vec![],
        ),
        (atom("lineitem", &l_args), vec![]),
        (atom("part", &[("p_partkey", "P")]), vec![p_type]),
    ];
    let chi = ["P", "S", "SN", "O", "EP", "RID", "NN"]
        .map(Into::into)
        .to_vec();
    Q8Vertex { db, atoms, chi }
}

/// The vertex join carries position lists, not cells: the Q8-shaped
/// vertex allocates per input list and per output column, the same
/// number of times however many columns lineitem carries through its
/// joins — where gathering every column at every join allocates per
/// carried column per join.
#[test]
fn vertex_join_allocations_do_not_grow_with_the_carried_width() {
    let _serial = serial();
    let late = |extra: usize| {
        let vertex = q8_vertex(extra);
        let (selected, chi) = (vertex.select(), &vertex.chi);
        let mut budget = Budget::unlimited();
        allocs_of(move || cops::join_vertex(selected, chi, &mut budget).unwrap())
    };
    let gathering = |extra: usize| {
        let vertex = q8_vertex(extra);
        let (chi, mut budget) = (&vertex.chi, Budget::unlimited());
        let rels: Vec<CRel> = vertex.select().into_iter().map(|s| s.gather().0).collect();
        allocs_of(move || {
            let mut acc = cops::natural_join(&rels[0], &rels[1], &mut budget).unwrap();
            acc = cops::natural_join(&acc, &rels[2], &mut budget).unwrap();
            acc = cops::natural_join(&acc, &rels[3], &mut budget).unwrap();
            cops::project_onto_available(acc, chi, &mut budget).unwrap()
        })
    };
    let _ = late(0); // warm-up
    let ((narrow, out), (wide, wide_out)) = (late(2), late(12));
    assert_eq!(out.len(), wide_out.len());
    assert!(
        out.len() > 100 && out.cols().len() == 7,
        "{} rows",
        out.len()
    );
    assert_eq!(
        narrow, wide,
        "2 carried columns: {narrow} allocations, 12: {wide}"
    );
    // Measured: 83 — per join its key columns, the kernel's table and
    // pair lists (sized once) and one position list per input; then seven
    // output columns and the distinct projection (181 while names were
    // strings and the pair lists grew by doubling). Gathering every column
    // at every join: 91 with 2 carried columns, 131 with 12.
    assert!(wide < 110, "{wide} allocations");
    let (g_narrow, g_wide) = (gathering(2).0, gathering(12).0);
    assert!(g_wide >= g_narrow + 20, "gathering: {g_narrow} → {g_wide}");
}

/// `finalize_c` evaluates each aggregate's expression a column at a time:
/// 20,000 answer rows allocate a handful of value vectors and the groups,
/// not one boxed row per answer row.
#[test]
fn aggregate_c_allocates_no_row_per_answer_row() {
    use htqo_cq::{AggFunc, ArithOp, CqBuilder, Literal, ScalarExpr};
    use htqo_engine::column::Column;
    use htqo_engine::schema::ColumnType;
    use std::sync::Arc;
    let _serial = serial();
    let n = 20_000;
    let float = |f: &dyn Fn(usize) -> f64| {
        let mut c = Column::new(ColumnType::Float);
        (0..n).for_each(|i| assert!(c.push_float(f(i))));
        Arc::new(c)
    };
    let mut flags = Column::new(ColumnType::Str);
    (0..n).for_each(|i| assert!(flags.push_str(["A", "N", "R"][i % 3])));
    let answer = CRel::new(
        ["RF", "EP", "D", "L"].map(Into::into).to_vec(),
        vec![
            Arc::new(flags),
            float(&|i| i as f64 * 0.25),
            float(&|i| (i % 10) as f64 / 100.0),
            Arc::new(Column::from_ints((0..n as i64).collect())),
        ],
        n,
    );
    let var = |v: &str| Box::new(ScalarExpr::Var(v.into()));
    let one_minus_d = ScalarExpr::Binary(
        Box::new(ScalarExpr::Lit(Literal::Int(1))),
        ArithOp::Sub,
        var("D"),
    );
    let revenue = ScalarExpr::Binary(var("EP"), ArithOp::Mul, Box::new(one_minus_d));
    let q = CqBuilder::new()
        .atom_vars("lineitem", &["RF", "EP", "D", "L"])
        .out_var("RF")
        .out_agg(AggFunc::Sum, Some(revenue), "revenue")
        .out_agg(AggFunc::Count, None, "n")
        .group("RF")
        .build();
    let finalize = || {
        let mut budget = Budget::unlimited();
        htqo_engine::finalize_c(&answer, &q, &mut budget).unwrap()
    };
    let _ = finalize(); // warm-up
    let (allocs, out) = allocs_of(finalize);
    assert_eq!(out.len(), 3);
    // Measured: 31; 49 while each group held a boxed accumulator list and
    // each block a vector of boxed values per aggregate, 61 before names
    // were shared (a boxed row per answer row: over 20,000).
    assert!(allocs <= 31, "{allocs} allocations for {n} answer rows");
}

/// The grouping kernel keeps one flat state vector per aggregate: 20,000
/// answer rows in 2,000 groups allocate one output row per group and a
/// constant number of vectors — with the key in a direct table (dense
/// `Int`s) and in the hashed table (the same keys spread over 10⁹).
#[test]
fn aggregate_c_allocates_one_row_per_group() {
    use htqo_cq::{AggFunc, CqBuilder, ScalarExpr};
    use htqo_engine::column::Column;
    use htqo_engine::schema::ColumnType;
    use std::sync::Arc;
    let _serial = serial();
    let (n, groups) = (20_000usize, 2_000usize);
    let mut ep = Column::new(ColumnType::Float);
    (0..n).for_each(|i| assert!(ep.push_float(i as f64 * 0.25)));
    let ep = Arc::new(ep);
    let q = CqBuilder::new()
        .atom_vars("r", &["G", "EP", "R"])
        .out_var("G")
        .out_agg(AggFunc::Sum, Some(ScalarExpr::Var("EP".into())), "s")
        .out_agg(AggFunc::Count, None, "n")
        .out_agg(AggFunc::Max, Some(ScalarExpr::Var("EP".into())), "hi")
        .group("G")
        .build();
    for (what, stride) in [("direct", 1), ("hashed", 500_000)] {
        let keys = (0..n as i64).map(|i| i * 7_919 % groups as i64 * stride);
        let answer = CRel::new(
            ["G", "EP", "R"].map(Into::into).to_vec(),
            vec![
                Arc::new(Column::from_ints(keys.collect())),
                Arc::clone(&ep),
                Arc::new(Column::from_ints((0..n as i64).collect())),
            ],
            n,
        );
        let finalize = || {
            let mut budget = Budget::unlimited();
            htqo_engine::finalize_c(&answer, &q, &mut budget).unwrap()
        };
        let _ = finalize(); // warm-up
        let (allocs, out) = allocs_of(finalize);
        assert_eq!(out.len(), groups);
        // Measured: 2,062 direct and 2,070 hashed — the output rows, and
        // the state vectors growing by doubling; three per group (a hash
        // bucket, an accumulator list, the row) while each group held its
        // own.
        assert!(
            allocs <= groups + 70,
            "{what}: {allocs} allocations for {groups} groups"
        );
    }
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
        // Measured: 15 dense, 16 otherwise (27 and 28 before the names
        // were shared and the kept list sized once).
        assert!(
            allocs < 24,
            "{what}: {allocs} allocations for {n} distinct keys"
        );
    }
}
